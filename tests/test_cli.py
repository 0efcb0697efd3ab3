"""CLI surface: subcommands, exit codes, config precedence, determinism."""

import json
import math
import os
import subprocess
import sys
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

    def test_qr_validation(self):
        with pytest.raises(UsageError):
            RunConfig(p=Fraction(5, 4), linf_qr=(4, 2))  # r p' != 2

    @pytest.mark.parametrize("triple", [(4, 4, 3), (4, 4, 4), (0, 4, 2), (2, 2, 0)])
    def test_holder_validation(self, triple):
        with pytest.raises(UsageError):
            RunConfig(holder=triple)

    def test_holder_below_one_for_p(self):
        # q(p-1) = 2 * 1/4 < 1 at p = 5/4
        with pytest.raises(UsageError, match=r"q\(p-1\)"):
            RunConfig(p=Fraction(5, 4), holder=(2, 4, 4), linf_qr=(4, 4))

    def test_p_fixes_linf_qr(self):
        assert RunConfig().linf_qr == (4, 2)
        assert RunConfig(linf_qr=("4", 2)).linf_qr == (4, 2)
        with pytest.raises(UsageError, match="fixes"):
            RunConfig(linf_qr=(3, 2))
        # the pair p = 5/4 fixes needs C_8/3, which is out of scope
        with pytest.raises(UsageError, match="C_8/3 is out of scope"):
            RunConfig(p=Fraction(5, 4))

    def test_echo_round(self):
        cfg = tiny_config()
        echo = cfg.echo()
        assert echo["p"] == "3/2"
        assert echo["grid_m"] == 3


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
