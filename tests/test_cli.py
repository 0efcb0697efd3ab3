"""CLI surface: subcommands, exit codes, config precedence, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from test_ivarray import BLAS, needs_blas

from powcert import cli, quad
from powcert.certify import ProofCertificate
from powcert.cli import (
    EXIT_OK,
    EXIT_STAGE,
    EXIT_USAGE,
    RunConfig,
    _config_from_args,
    build_parser,
    main,
    psa_selftest,
    run_pipeline,
    run_verify,
)
from powcert.errors import IntervalDomainError, UsageError


def tiny_config(**kw):
    base = dict(
        n_modes=6,
        eig_n=4,
        grid_m=3,
        degree=6,
        workers=1,
        res_width=None,
        gram_width=None,
        galerkin_tol=1e-10,
    )
    base.update(kw)
    return RunConfig(**base)


def refuse_solve(*args, **kw):
    raise AssertionError("newton_solve ran")


class TestRunConfig:
    def test_p_validation(self):
        with pytest.raises(UsageError):
            RunConfig(p=Fraction(5, 2))

    @pytest.mark.parametrize("triple", [(4, 4, 3), (4, 4, 4), (0, 4, 2), (2, 2, 0)])
    def test_holder_validation(self, triple):
        with pytest.raises(UsageError):
            RunConfig(holder=triple)

    def test_holder_below_one_for_p(self):
        # q(p-1) = 2 * 1/4 < 1 at p = 5/4
        with pytest.raises(UsageError, match=r"q\(p-1\)"):
            RunConfig(p=Fraction(5, 4), holder=(2, 4, 4))

    def test_p_fixes_linf_qr(self, tmp_path, capsys, monkeypatch):
        assert RunConfig().echo()["linf_qr"] == ["4", "2"]
        # the pair p = 5/4 fixes needs C_8/3, which is out of scope
        with pytest.raises(UsageError, match="C_8/3 is out of scope"):
            RunConfig(p=Fraction(5, 4))
        # a config file may echo the pair p fixes, and no other
        monkeypatch.setattr(cli, "newton_solve", refuse_solve)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"linf_qr": ["3", "2"]}))
        assert main(["verify", "--config", str(cfgfile), "--quiet"]) == EXIT_USAGE
        assert "fixes (q,r) = (4,2)" in capsys.readouterr().err

    def test_echo_round(self):
        cfg = tiny_config()
        echo = cfg.echo()
        assert echo["p"] == "3/2"
        assert echo["grid_m"] == 3

    def test_default_echo(self):
        assert RunConfig().echo() == {
            "p": "3/2",
            "n_modes": 60,
            "eig_n": 14,
            "grid_m": 16,
            "degree": 10,
            "holder": ["4", "4", "2"],
            "linf_qr": ["4", "2"],
            "max_depth": 12,
            "res_width": 0.01,
            "gram_width": 1e-05,
            "tail_threshold": 2.0,
            "galerkin_tol": 1e-11,
        }

    def test_verify_flags_store_into_fields(self):
        given = vars(build_parser().parse_args(["verify"]))
        assert set(given) - {"command", "config", "quiet"} <= {f.name for f in fields(RunConfig)}

    def test_config_file_keys(self, tmp_path):
        # the echo, and workers: every setting but a path
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({**RunConfig().echo(), "workers": 1}))
        args = build_parser().parse_args(["verify", "--config", str(cfgfile)])
        assert _config_from_args(args).workers == 1
        for key in ("out", "coeffs_in", "coeffs_out", "pencil_out"):
            cfgfile.write_text(json.dumps({key: str(tmp_path / "x.json")}))
            with pytest.raises(UsageError, match="unknown config keys"):
                _config_from_args(args)


class TestPipelineTiny:
    def test_failed_certificate_names_stage(self):
        # eig_n = 4 cannot clear the spectral tail threshold -> honest failure
        cert = run_pipeline(tiny_config())
        assert cert.status.startswith("failed: ")
        assert not cert.valid
        assert cert.failure

    def test_exit_code_contract(self, tmp_path):
        out = tmp_path / "cert.json"
        code, cert = run_verify(tiny_config(out=str(out)))
        assert (code == EXIT_OK) == cert.valid
        assert code == EXIT_STAGE  # tiny run fails the spectral tail
        data = json.loads(out.read_text())
        assert data["certificate"]["status"] == cert.status

    def test_determinism_across_reruns_and_workers(self):
        c1 = run_pipeline(tiny_config(workers=1))
        c2 = run_pipeline(tiny_config(workers=1))
        c3 = run_pipeline(tiny_config(workers=3))
        assert c1.body_dict() == c2.body_dict() == c3.body_dict()

    @needs_blas
    def test_one_blas_thread_while_computing(self, monkeypatch, tmp_path):
        # Galerkin runs with one BLAS thread, and the count is restored
        # after a certificate, valid or failed
        get, set_ = BLAS
        seen = []
        real = cli.newton_solve

        def spying(*args, **kw):
            seen.append(get())
            return real(*args, **kw)

        monkeypatch.setattr(cli, "newton_solve", spying)
        before = get()
        set_(2)
        try:
            code, _ = run_verify(tiny_config(out=str(tmp_path / "cert.json")))
            assert code == EXIT_STAGE and seen == [1] and get() == 2
            code, _ = run_verify(RunConfig(**SMALL_VALID))
            assert code == EXIT_OK and seen == [1, 1] and get() == 2
        finally:
            set_(before)

    def test_coeff_roundtrip_through_files(self, tmp_path):
        coeffs = tmp_path / "u.json"
        cfg = tiny_config(coeffs_out=str(coeffs))
        run_pipeline(cfg)
        assert coeffs.exists()
        cfg2 = tiny_config(coeffs_in=str(coeffs))
        cert2 = run_pipeline(cfg2)
        cert1 = run_pipeline(cfg)
        assert cert1.body_dict() == cert2.body_dict()

    def test_coeffs_in_of_other_n_modes_fails_galerkin(self, tmp_path, monkeypatch):
        # the echoed n_modes must be the one that made the coefficients
        monkeypatch.setattr(cli, "newton_solve", refuse_solve)
        coeffs = tmp_path / "u.json"
        coeffs.write_text('{"n_max": 3, "coeffs": [[1, 1, 20.0]]}')
        cert = run_pipeline(tiny_config(coeffs_in=str(coeffs)))
        assert cert.status == "failed: galerkin"
        assert "n_max = 3" in cert.failure and "n_modes = 6" in cert.failure

    def test_tol_below_the_picard_floor_fails_galerkin(self, tmp_path, capsys):
        # the Picard steps stop at the roundoff floor, about 1e-15
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n_modes": 6, "eig_n": 4, "grid_m": 3, "galerkin_tol": 1e-17}))
        out = tmp_path / "cert.json"
        assert main(["verify", "--config", str(cfgfile), "--out", str(out), "--quiet"]) == EXIT_STAGE
        cert = json.loads(out.read_text())["certificate"]
        assert cert["status"] == "failed: galerkin"
        assert "residual" in cert["failure"] and "tol 1e-17" in cert["failure"]
        assert "Traceback" not in capsys.readouterr().err


class TestSubcommands:
    def test_psa_selftest_passes(self, capsys):
        assert psa_selftest() == EXIT_OK
        out = capsys.readouterr().out
        assert "all golden cases reproduced" in out

    def test_constants_output(self, capsys):
        code = main(["constants", "--p", "4"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "C2" in out and "C4" in out and "lambda1" in out
        # C4 must not exceed 0.318309887
        c4_line = [l for l in out.splitlines() if l.startswith("C4")][0]
        hi = float(c4_line.split(",")[1].strip(" ]"))
        assert hi <= 0.318309887 + 1e-7

    def test_plot_data(self, tmp_path, capsys):
        path = tmp_path / "plot.csv"
        code = main(
            ["plot-data", "--grid", "8", "--modes", "4", "--out", str(path)]
        )
        assert code == EXIT_OK
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,u"
        assert len(lines) == 1 + 9 * 9

    def test_usage_error_exit(self):
        assert main(["verify", "--p", "abc"]) == EXIT_USAGE
        assert main([]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--holder", "4,1/0,2"],
            ["plot-data", "--p", "abc"],
            ["plot-data", "--p", "1/0"],
        ],
    )
    def test_malformed_rational_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setattr(cli, "newton_solve", refuse_solve)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        assert "not a rational number" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_plot_grid_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "newton_solve", refuse_solve)
        out = tmp_path / "plot.csv"
        assert main(["plot-data", "--grid", "-3", "--out", str(out)]) == EXIT_USAGE
        assert "--grid" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_eig_dim_is_usage_error(self, capsys):
        assert main(["constants", "--eig-dim", "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing computed or printed
        assert "--eig-dim" in captured.err

    @pytest.mark.parametrize("p", ["0", "-3", "1/2"])
    def test_constants_p_below_one_is_usage_error(self, capsys, p):
        assert main(["constants", "--p", p]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing computed or printed
        assert "--p" in captured.err

    @pytest.mark.parametrize("p", ["3", "5/2", "7/3"])
    def test_constants_p_out_of_scope_is_usage_error(self, capsys, p):
        # C_p has no closed form here: refused before anything is printed
        assert main(["constants", "--p", p]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"C_{p} is out of scope" in captured.err

    @pytest.mark.parametrize("p, line", [("1", "C_1 "), ("3/2", "C_3/2 "), ("4", "C_4 ")])
    def test_constants_p_from_one_prints(self, capsys, p, line):
        assert main(["constants", "--p", p]) == EXIT_OK
        out = capsys.readouterr().out
        assert any(l.startswith(line) for l in out.splitlines()), out

    def test_config_file_precedence(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n_modes": 8, "grid_m": 5}))
        from powcert.cli import _config_from_args, build_parser

        args = build_parser().parse_args(
            ["verify", "--config", str(cfgfile), "--grid", "7"]
        )
        cfg = _config_from_args(args)
        assert cfg.n_modes == 8      # from file
        assert cfg.grid_m == 7       # flag wins

    def test_explicit_flag_equal_to_default_wins(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n_modes": 40}))
        from powcert.cli import _config_from_args, build_parser

        args = build_parser().parse_args(
            ["verify", "--config", str(cfgfile), "--modes", "60"]
        )
        assert _config_from_args(args).n_modes == 60

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"bogus": 1}))
        out = tmp_path / "cert.json"
        tiny = ["--modes", "6", "--eig-dim", "4", "--grid", "2", "--psa-degree", "6", "--workers", "1"]
        code = main(["verify", "--config", str(cfgfile), *tiny, "--out", str(out), "--quiet"])
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_bad_holder_exits_before_solving(self, tmp_path, monkeypatch):
        def no_solve(*args, **kw):
            raise AssertionError("newton_solve ran")

        monkeypatch.setattr(cli, "newton_solve", no_solve)
        out = tmp_path / "cert.json"
        code = main(["verify", "--holder", "4,4,3", "--out", str(out), "--quiet"])
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_out_of_scope_holder_exits_before_solving(self, tmp_path, monkeypatch):
        # (3,3,3) passes the Holder checks, but C_3 has no closed form here
        def no_solve(*args, **kw):
            raise AssertionError("newton_solve ran")

        monkeypatch.setattr(cli, "newton_solve", no_solve)
        out = tmp_path / "cert.json"
        code = main(["verify", "--holder", "3,3,3", "--out", str(out), "--quiet"])
        assert code == EXIT_USAGE
        assert not out.exists()
        with pytest.raises(UsageError, match="C_3 is out of scope"):
            RunConfig(holder=(3, 3, 3))

    def test_overflowing_table_degree_exits_before_solving(self, tmp_path, monkeypatch, capsys):
        # the reduced sine tables' remainder (f pi)^203 / 203! overflows a float
        def no_solve(*args, **kw):
            raise AssertionError("newton_solve ran")

        monkeypatch.setattr(cli, "newton_solve", no_solve)
        out = tmp_path / "cert.json"
        argv = ["verify", "--psa-degree", "200", "--grid", "2", "--modes", "6", "--eig-dim", "2"]
        assert main([*argv, "--out", str(out), "--quiet"]) == EXIT_USAGE
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("usage error: PSA degree 200 too high")
        assert not out.exists()

    def test_table_degree_limit_is_the_builders(self):
        # modes 1, 3, 5: the reduced sines take the highest remainder order,
        # degree + 2 at odd degree and degree + 3 at even, and 170! is the
        # greatest factorial a float holds
        edge = [(Fraction(0), Fraction(1, 4))]
        RunConfig(degree=167, n_modes=6, eig_n=2, grid_m=2)
        quad._build_trig_tables((1, 3, 5), edge, 0, True, 167)
        with pytest.raises(UsageError, match="PSA degree 168 too high"):
            RunConfig(degree=168, n_modes=6, eig_n=2, grid_m=2)
        with pytest.raises(UsageError, match="PSA degree 168 too high"):
            quad._build_trig_tables((1, 3, 5), edge, 0, True, 168)
        # at the default 60 modes (f pi)^k itself overflows
        RunConfig(degree=130)
        with pytest.raises(UsageError, match="PSA degree 140 too high"):
            RunConfig(degree=140)

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--psa-degree", "1"], None),
            (["--workers", "-1"], None),
            ([], {"max_depth": -1}),
            ([], {"res_width": 0}),
            ([], {"res_width": -2000.0}),
            ([], {"res_width": math.inf}),
            ([], {"res_width": "2000"}),
            ([], {"gram_width": math.nan}),
            ([], {"gram_width": 0.0}),
            ([], {"tail_threshold": 0}),
            ([], {"tail_threshold": math.inf}),
            ([], {"tail_threshold": None}),
            ([], {"galerkin_tol": 0.0}),
            ([], {"galerkin_tol": math.nan}),
            ([], {"linf_qr": ["4", "two"]}),
            ([], {"linf_qr": ["4"]}),
            ([], {"linf_qr": ["3", "2"]}),
            ([], {"linf_qr": "42"}),
            ([], {"holder": "442"}),
            (["--p", "5/4"], None),
            ([], {"grid_m": "8"}),
            ([], {"degree": 6.5}),
            ([], {"grid_m": True}),
            ([], {"max_depth": False}),
            ([], {"res_width": True}),
            ([], {"galerkin_tol": True}),
        ],
    )
    def test_bad_sweep_config_exits_before_solving(self, tmp_path, monkeypatch, flags, config):
        def no_solve(*args, **kw):
            raise AssertionError("newton_solve ran")

        monkeypatch.setattr(cli, "newton_solve", no_solve)
        argv = ["verify", *flags]
        if config is not None:
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps(config))  # writes NaN and Infinity tokens
            argv += ["--config", str(cfgfile)]
        out = tmp_path / "cert.json"
        code = main([*argv, "--out", str(out), "--quiet"])
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(degree=1), "degree"),
            (dict(max_depth=-1), "max_depth"),
            (dict(workers=-1), "workers"),
            (dict(res_width=math.nan), "res_width"),
            (dict(gram_width=-1e-5), "gram_width"),
            (dict(tail_threshold=-math.inf), "tail_threshold"),
            (dict(galerkin_tol=math.inf), "galerkin_tol"),
            # bool is an int in Python, but no count or width in a config
            (dict(n_modes=True), "n_modes"),
            (dict(eig_n=True), "eig_n"),
            (dict(grid_m=True), "grid_m"),
            (dict(degree=True), "degree"),
            (dict(max_depth=False), "max_depth"),
            (dict(workers=True), "workers"),
            (dict(res_width=True), "res_width"),
            (dict(gram_width=True), "gram_width"),
            (dict(tail_threshold=True), "tail_threshold"),
            (dict(galerkin_tol=True), "galerkin_tol"),
        ],
    )
    def test_bad_sweep_config_names_field(self, kw, match):
        with pytest.raises(UsageError, match=match):
            tiny_config(**kw)

    def test_zero_workers_means_one_per_cpu(self, monkeypatch):
        # the CPUs this process may run on, where the platform says so
        if hasattr(os, "sched_getaffinity"):
            assert tiny_config(workers=0).workers == len(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5}, raising=False)
        assert tiny_config(workers=0).workers == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert tiny_config(workers=0).workers == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert tiny_config(workers=0).workers == 1

    def test_certificate_config_replays(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        run_verify(tiny_config(out=str(out)))
        echo = json.loads(out.read_text())["certificate"]["config"]
        assert "linf_qr" in echo
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(echo))
        out2 = tmp_path / "cert2.json"
        code = main(
            ["verify", "--config", str(cfgfile), "--workers", "1", "--out", str(out2), "--quiet"]
        )
        assert code == EXIT_STAGE  # the tiny run fails the spectral tail, as above
        assert json.loads(out2.read_text())["certificate"]["config"] == echo

    @pytest.mark.parametrize(
        "files, argv, code",
        [
            ({}, ["--config", "{d}/missing.json"], EXIT_USAGE),
            ({"cfg.json": "not json"}, ["--config", "{d}/cfg.json"], EXIT_USAGE),
            ({"cfg.json": '{"p": "abc"}'}, ["--config", "{d}/cfg.json"], EXIT_USAGE),
            ({"cfg.json": '{"p": [1]}'}, ["--config", "{d}/cfg.json"], EXIT_USAGE),
            ({"cfg.json": '{"p": "1/0"}'}, ["--config", "{d}/cfg.json"], EXIT_USAGE),
            ({}, ["--out", "{d}/missing/cert.json"], EXIT_USAGE),
            ({}, ["--out", "{d}"], EXIT_USAGE),
            ({}, ["--coeffs-out", "{d}/missing/u.json"], EXIT_USAGE),
            ({}, ["--pencil-out", "{d}/missing/pencil.json"], EXIT_USAGE),
            # a coefficient file is read by the galerkin stage, which fails
            ({"u.json": "not json"}, ["--coeffs-in", "{d}/u.json"], EXIT_STAGE),
            ({"u.json": "{}"}, ["--coeffs-in", "{d}/u.json"], EXIT_STAGE),
            ({"u.json": '{"n_max": 3, "coeffs": [[1, 1, NaN]]}'}, ["--coeffs-in", "{d}/u.json"], EXIT_STAGE),
            ({"u.json": '{"n_max": 3, "coeffs": [[1, 1, 1e308], [3, 1, 1e308]]}'},
             ["--coeffs-in", "{d}/u.json", "--modes", "3"], EXIT_STAGE),
        ],
        ids=[
            "config-missing", "config-not-json", "config-p-abc", "config-p-list",
            "config-p-1-over-0", "out-missing-dir", "out-is-dir", "coeffs-out-missing-dir",
            "pencil-out-missing-dir", "coeffs-in-not-json", "coeffs-in-empty-object",
            "coeffs-in-nan", "coeffs-in-sum-overflow",
        ],
    )
    def test_outside_input_exits_cleanly(self, tmp_path, monkeypatch, capsys, files, argv, code):
        monkeypatch.setattr(cli, "newton_solve", refuse_solve)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [arg.format(d=tmp_path) for arg in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "cert.json")]
        assert main(["verify", *argv, "--quiet"]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code == EXIT_USAGE:
            assert captured.out == "" and "usage error" in captured.err
            assert not (tmp_path / "cert.json").exists()
        else:
            status = json.loads(captured.out)["certificate"]["status"]
            assert status == "failed: galerkin"
            assert "coefficient JSON" in json.loads(captured.out)["certificate"]["failure"]

    @pytest.mark.parametrize("p", ["1001/1000", "1005/1000"])
    def test_plot_data_overflowing_amplitude_fails(self, tmp_path, capsys, p):
        path = tmp_path / "plot.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings too
            assert main(["plot-data", "--p", p, "--grid", "2", "--out", str(path)]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err.startswith("failure: p = ") and "amplitude" in err
        assert not path.exists()

    def test_plot_data_missing_coeffs_is_usage_error(self, tmp_path, capsys):
        argv = ["plot-data", "--coeffs-in", str(tmp_path / "missing.json")]
        assert main([*argv, "--out", str(tmp_path / "plot.csv")]) == EXIT_USAGE
        assert "No such file" in capsys.readouterr().err

    def test_entry_point_subprocess(self):
        res = subprocess.run(
            [sys.executable, "-m", "powcert.cli", "psa-selftest"],
            capture_output=True,
            text=True,
        )
        assert res.returncode == EXIT_OK


# the smallest configuration found that certifies at degree 6 (about 1 s)
SMALL_VALID = dict(
    n_modes=10, eig_n=6, grid_m=6, degree=6, workers=1, res_width=2000.0, gram_width=None
)


def cpu_flags():
    try:
        with open("/proc/cpuinfo") as fh:
            return set(fh.read().split())
    except OSError:
        return set()


class TestBlasKernel:
    @needs_blas
    @pytest.mark.skipif("avx2" not in cpu_flags(), reason="the Haswell kernel needs AVX2")
    def test_certificate_under_another_kernel(self, tmp_path):
        # K, r1, r2 and neg_part_bound are bounds whose bits follow the
        # BLAS kernel's rounding; under either kernel the certificate is
        # valid and rechecks, g_coefficient is equal, the amplitude
        # enclosures overlap, and meta names the kernel
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(SMALL_VALID))
        certs = []
        for core in (None, "Haswell"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            if core:
                env["OPENBLAS_CORETYPE"] = core
            out = tmp_path / f"{core}.json"
            argv = ["verify", "--config", str(cfgfile), "--out", str(out), "--quiet"]
            subprocess.run([sys.executable, "-m", "powcert.cli", *argv], env=env, capture_output=True, check=True)
            certs.append(ProofCertificate.from_json(out.read_text()))
        default, haswell = certs
        assert all(cert.valid and cert.recheck() for cert in certs)
        assert (default.g_coeff.lo, default.g_coeff.hi) == (haswell.g_coeff.lo, haswell.g_coeff.hi)
        assert default.amplitude.overlaps(haswell.amplitude)
        assert default.blas_core and haswell.blas_core == "Haswell"


class TestStageFailures:
    @pytest.mark.parametrize(
        "name, stage",
        [
            ("linf_bound", "linf-bound"),
            ("positivity_check", "positivity"),
            ("amplitude_enclosure", "amplitude"),
            ("delta_from_residual", "delta"),
        ],
    )
    def test_late_stage_error_names_stage(self, tmp_path, monkeypatch, name, stage):
        def broken(*args, **kw):
            raise IntervalDomainError(f"injected failure in {name}")

        monkeypatch.setattr(cli, name, broken)
        out = tmp_path / "cert.json"
        code, cert = run_verify(RunConfig(**SMALL_VALID, out=str(out)))
        assert code == EXIT_STAGE
        data = json.loads(out.read_text())["certificate"]
        assert data["status"] == f"failed: {stage}"
        assert "injected failure" in cert.failure

    @pytest.mark.parametrize("side", ["coeffs_out", "pencil_out"])
    def test_failed_side_file_keeps_status(self, tmp_path, capsys, side):
        missing = tmp_path / "missing" / "side.json"
        cert = run_pipeline(RunConfig(**SMALL_VALID, **{side: str(missing)}))
        assert cert.status == "valid"
        assert f"cannot write {missing}" in capsys.readouterr().err

    def test_failed_certificate_write_exits_stage(self, tmp_path, monkeypatch, capsys):
        # the --out directory goes away after the checks: the run still
        # prints its certificate, and exits EXIT_STAGE
        real = cli.run_pipeline
        outdir = tmp_path / "gone"
        outdir.mkdir()

        def pipeline_then_rmdir(cfg, log=None):
            outdir.rmdir()
            return real(cfg, log=log)

        monkeypatch.setattr(cli, "run_pipeline", pipeline_then_rmdir)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(SMALL_VALID))
        out = outdir / "cert.json"
        code = main(["verify", "--config", str(cfgfile), "--out", str(out), "--quiet"])
        captured = capsys.readouterr()
        assert code == EXIT_STAGE
        assert json.loads(captured.out)["certificate"]["status"] == "valid"
        assert f"cannot write {out}" in captured.err

    def test_definiteness_error_fails_inverse_bound(self, monkeypatch):
        real = cli.pipeline_sweep

        def poisoned(*args, **kw):
            res, gram, ranges, stats = real(*args, **kw)
            gram.lo[0, 1] = gram.hi[0, 1] = math.nan
            return res, gram, ranges, stats

        monkeypatch.setattr(cli, "pipeline_sweep", poisoned)
        cert = run_pipeline(tiny_config())
        assert cert.status == "failed: inverse-bound"
        assert "midpoint eigendecomposition failed" in cert.failure

    def test_non_finite_factor_table_fails_integration(self, monkeypatch):
        real = quad._build_trig_tables

        def poisoned(freqs, edges, phase, reduced, degree):
            out = real(freqs, edges, phase, reduced, degree)
            if phase == 1:  # the cosine tables of the gram sweep
                out.lo[:, 0, 0] = math.nan
            return out

        monkeypatch.setattr(quad, "_build_trig_tables", poisoned)
        cert = run_pipeline(tiny_config())
        assert cert.status == "failed: integration"
        assert "non-finite integral on" in cert.failure
        # raised in a forked worker, the error names the same rectangle
        forked = run_pipeline(tiny_config(workers=2))
        assert (forked.status, forked.failure) == (cert.status, cert.failure)
