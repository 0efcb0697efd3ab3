"""Command-line front end: run the verification pipeline, print constants,
self-test the series arithmetic, export plot data.

Exit codes: 0 = certificate valid, 2 = stage failure or self-test mismatch,
64 = usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .certify import (
    ProofCertificate,
    amplitude_enclosure,
    build_certificate,
    delta_from_residual,
    embedding_constant,
    exact_l2_norm,
    failed_certificate,
    find_alpha,
    g_coefficient,
    lambda1_interval,
    linf_bound,
    linf_exponents,
    poincare_c2,
    positivity_check,
    sobolev_constant,
)
from .errors import PowcertError, UnsupportedError, UsageError
from .galerkin import FourierApproximation, GalerkinConfig, newton_solve, odd_modes
from .interval import Interval
from .ivarray import single_blas_thread
from .quad import QuadConfig, check_table_degree, gram_indices_freqs, pipeline_sweep, sup_weight
from .spectral import projection_constant, spectral_K_from_gram, symmetric_indices

__all__ = ["RunConfig", "run_verify", "run_pipeline", "main", "psa_selftest"]

EXIT_OK = 0
EXIT_STAGE = 2
EXIT_USAGE = 64


def _available_cpus() -> int:
    """The CPUs this process may run on, where the platform says so, else
    the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rational(name: str, value) -> Fraction:
    try:
        return Fraction(str(value))  # a flag's text, or a JSON number or string
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{name}: not a rational number: {value!r}") from None


def _rationals(name: str, value) -> tuple:
    # exponent lists as a certificate's config echoes them: ["4", "2"]
    if not isinstance(value, (list, tuple)):
        raise UsageError(f"{name}: expected a list, got {value!r}")
    return tuple(_rational(name, v) for v in value)


def _count(name: str, value) -> int:
    # bool is a subclass of int, so a JSON true would pass for 1
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return value


def _positive(name: str, value) -> float:
    if isinstance(value, bool) or not (isinstance(value, (int, float)) and 0 < value < math.inf):
        raise UsageError(f"{name} must be finite and > 0, got {value!r}")
    return value


def _width(name: str, value) -> float | None:
    return None if value is None else _positive(name, value)  # None: no width budget


def _setting(default, check=None, local=False):
    """A verify setting: check(name, value) returns it normalized or raises a
    UsageError naming it.  The certificate echoes all but the local settings;
    a setting without a check is a path, which only a flag gives."""
    return field(default=default, metadata={"check": check, "local": local})


@dataclass
class RunConfig:
    """The settings of one verify run.  The verify flags, the keys a config
    file may hold, the checks and the certificate's config echo all derive
    from these fields."""

    p: Fraction = _setting(Fraction(3, 2), _rational)
    n_modes: int = _setting(60, _count)          # N_u
    eig_n: int = _setting(14, _count)            # eigenvalue subspace cutoff N
    grid_m: int = _setting(16, _count)           # rectangles per quadrant edge
    degree: int = _setting(10, _count)           # PSA degree for the pipeline models
    holder: tuple = _setting((4, 4, 2), _rationals)
    workers: int = _setting(0, _count, local=True)  # 0 = one per CPU this process may use
    max_depth: int = _setting(12, _count)
    res_width: float | None = _setting(0.01, _width)   # budget for the residual-norm square
    gram_width: float | None = _setting(1e-5, _width)  # budget per gram table entry
    tail_threshold: float = _setting(2.0, _positive)
    galerkin_tol: float = _setting(1e-11, _positive)
    out: str | None = _setting(None, local=True)
    coeffs_in: str | None = _setting(None, local=True)
    coeffs_out: str | None = _setting(None, local=True)
    pencil_out: str | None = _setting(None, local=True)

    def __post_init__(self):
        for f in fields(self):
            if f.metadata["check"]:
                setattr(self, f.name, f.metadata["check"](f.name, getattr(self, f.name)))
        if not (1 < self.p < 2):
            raise UsageError(f"p must lie in (1, 2), got {self.p}")
        if self.n_modes < 1 or self.eig_n < 1 or self.grid_m < 1:
            raise UsageError("sizes must be >= 1")
        if self.workers == 0:
            self.workers = _available_cpus()
        self.quad()  # the sweep's own checks: degree, max_depth and workers
        check_table_degree(
            self.degree, odd_modes(self.n_modes), gram_indices_freqs(symmetric_indices(self.eig_n))
        )
        try:
            # the existence-test stage's coefficient, which checks the triple
            # and would otherwise reject an out-of-scope one after the sweep
            g_coefficient(self.p, self.holder)
        except UnsupportedError as exc:
            raise UsageError(f"Holder triple {','.join(map(str, self.holder))}: {exc}") from exc
        try:
            sobolev_constant(linf_exponents(self.p)[0])  # the linf-bound stage's C_q
        except UnsupportedError as exc:
            raise UsageError(f"p = {self.p}: {exc}") from exc

    def echo(self) -> dict:
        """The settings but the local ones, and the linf_qr p fixes, as the
        certificate's JSON holds them: Fractions as strings, tuples as lists."""
        echo = {f.name: getattr(self, f.name) for f in fields(self) if not f.metadata["local"]}
        echo["linf_qr"] = linf_exponents(self.p)
        return json.loads(json.dumps(echo, default=str))

    def quad(self) -> QuadConfig:
        return QuadConfig(
            degree=self.degree, grid_m=self.grid_m, max_depth=self.max_depth, workers=self.workers
        )


def _load_coeffs(path) -> FourierApproximation:
    with open(path) as fh:
        return FourierApproximation.from_json(fh.read())


def _write(path, text: str) -> bool:
    # a failed write is reported, not raised: it changes no certificate
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


# one BLAS thread: Galerkin's leggauss and the spectral stage make products
# too small for a second one
@single_blas_thread()
def run_pipeline(cfg: RunConfig, log=None) -> ProofCertificate:
    """galerkin -> quad -> spectral -> certify; any stage failure yields a
    failed certificate naming the stage (never a silent partial success)."""
    echo = cfg.echo()

    def say(msg):
        if log:
            print(msg, file=log, flush=True)

    stage = "galerkin"
    try:
        if cfg.coeffs_in:
            u_hat = _load_coeffs(cfg.coeffs_in)
            # the echoed n_modes must be the one that made u_hat
            if u_hat.n_max != cfg.n_modes:
                raise UsageError(
                    f"{cfg.coeffs_in} holds n_max = {u_hat.n_max}, but n_modes = {cfg.n_modes}"
                )
        else:
            u_hat = newton_solve(GalerkinConfig(n_modes=cfg.n_modes, p=cfg.p, tol=cfg.galerkin_tol))
        say(f"galerkin: amplitude ~ {u_hat.center_value():.4f}")
        if cfg.coeffs_out:
            _write(cfg.coeffs_out, u_hat.to_json())

        stage = "integration"
        indices = symmetric_indices(cfg.eig_n)
        res_norm, gram, ranges, stats = pipeline_sweep(
            u_hat, cfg.p, indices, cfg.quad(), res_width=cfg.res_width, gram_width=cfg.gram_width
        )
        say(f"sweep: residual={res_norm} rects={stats['rects']} "
            f"over_budget={stats['over_budget']} max_hi={ranges[1]:.6g}")

        stage = "delta"
        delta = delta_from_residual(res_norm, poincare_c2())
        say(f"delta: {delta}")

        stage = "inverse-bound"
        sup_w = sup_weight(cfg.p, ranges)
        k_bound, pencil = spectral_K_from_gram(
            gram, indices, cfg.eig_n, sup_w, tail_threshold=cfg.tail_threshold
        )
        say(f"K: {k_bound}")
        if cfg.pencil_out:
            _write(cfg.pencil_out, json.dumps(pencil.to_json_dict(), indent=1))

        stage = "existence-test"
        c_coeff = g_coefficient(cfg.p, cfg.holder)
        alpha = find_alpha(delta, k_bound, c_coeff, cfg.p)
        say(f"alpha (r1): {alpha.alpha}")

        stage = "linf-bound"
        u_l2 = exact_l2_norm(u_hat)
        r2 = linf_bound(Interval(alpha.alpha), u_l2, res_norm, cfg.p)
        say(f"r2: {r2}")

        stage = "positivity"
        pos = positivity_check(r2, cfg.p, ranges)

        stage = "amplitude"
        amp = amplitude_enclosure(r2, ranges)
        say(f"positivity: {pos.verdict} bound={pos.neg_part_bound} amplitude={amp}")
    except (PowcertError, OSError) as exc:
        return failed_certificate(cfg.p, echo, stage, str(exc))

    return build_certificate(
        cfg.p, echo, res_norm, delta, k_bound, c_coeff, alpha, r2, pos, amp
    )


def run_verify(cfg: RunConfig, log=None) -> tuple[int, ProofCertificate]:
    """Run the pipeline and write the certificate to cfg.out; a certificate
    that could not be written exits EXIT_STAGE, valid or not."""
    cert = run_pipeline(cfg, log=log)
    written = not cfg.out or _write(cfg.out, cert.to_json())
    return (EXIT_OK if cert.valid and written else EXIT_STAGE), cert


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def psa_selftest(out=None) -> int:
    """Re-run the worked series-arithmetic examples; 0 iff all reproduce."""
    from .psa import ElemFn, PowerSeries1D, ps_compose

    out = out or sys.stdout
    ulp = 2.0**-52
    dom = Interval(0.0, 0.1)
    u = PowerSeries1D.from_floats([1.0, 2.0, -3.0], dom)
    v = PowerSeries1D.from_floats([1.0, -1.0, 1.0], dom)
    failures = []

    def check(name, model, idx, lo, hi, ulps=8):
        c = model.coeffs[0, idx].item()
        tol = ulps * ulp * max(1.0, abs(lo), abs(hi))
        ok = abs(c.lo - lo) <= tol and abs(c.hi - hi) <= tol
        print(f"  {'ok  ' if ok else 'FAIL'} {name}[x^{idx}] = {c}", file=out)
        if not ok:
            failures.append(name)

    print("sum (1+2x-3x^2) + (1-x+x^2):", file=out)
    s = u + v
    for i, val in ((0, 2.0), (1, 1.0), (2, -2.0)):
        check("sum", s, i, val, val, 4)
    print("difference:", file=out)
    d = u - v
    for i, val in ((0, 0.0), (1, 3.0), (2, -4.0)):
        check("diff", d, i, val, val, 4)
    print("product:", file=out)
    m = u * v
    check("prod", m, 0, 1.0, 1.0, 4)
    check("prod", m, 1, 1.0, 1.0, 4)
    check("prod", m, 2, -4.0, -3.5, 4)
    print("log composition:", file=out)
    lg = ps_compose(ElemFn.log(), u)
    check("log", lg, 0, 0.0, 0.0, 8)
    check("log", lg, 1, 2.0, 2.0, 8)
    check("log", lg, 2, -5.0, float(Fraction(-143, 36)), 16)
    if failures:
        print(f"FAILED cases: {sorted(set(failures))}", file=out)
        return EXIT_STAGE
    print("all golden cases reproduced", file=out)
    return EXIT_OK


def cmd_constants(args, out=None) -> int:
    if args.eig_dim < 1:
        raise UsageError(f"--eig-dim must be >= 1, got {args.eig_dim}")
    p = None if args.p is None else _rational("--p", args.p)
    if p is not None:
        try:
            c_p = sobolev_constant(p)
        except (UsageError, UnsupportedError) as exc:
            raise UsageError(f"--p {p}: {exc}") from exc
    out = out or sys.stdout
    print(f"C2      = {poincare_c2()}", file=out)
    print(f"C4      = {embedding_constant(Fraction(4))}", file=out)
    print(f"C_N(N={args.eig_dim}) = {projection_constant(args.eig_dim)}", file=out)
    print(f"lambda1 = {lambda1_interval()}", file=out)
    if p is not None:
        note = " (Holder reduction to C2)" if p <= 2 else ""
        print(f"C_{p}    = {c_p}{note}", file=out)
    return EXIT_OK


def cmd_plot_data(args, out_stream=sys.stderr) -> int:
    if args.grid < 1:
        raise UsageError(f"--grid must be >= 1, got {args.grid}")
    p = _rational("--p", args.p)
    if args.coeffs_in:
        u = _load_coeffs(args.coeffs_in)
    else:
        u = newton_solve(GalerkinConfig(n_modes=args.modes, p=p))
    g = args.grid
    xs = np.linspace(0.0, 1.0, g + 1)
    vals = u.eval_grid(xs, xs)
    path = args.out or "plot_data.csv"
    with open(path, "w") as fh:
        fh.write("x,y,u\n")
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                fh.write(f"{x!r},{y!r},{vals[i, j]!r}\n")
    print(f"wrote {(g + 1) ** 2} samples to {path}", file=out_stream)
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    ap = _Parser(prog="powcert", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the full verification pipeline")

    def setting(flag, name, text, **kw):
        # no parser default: a flag counts as given only when passed
        default = RunConfig.__dataclass_fields__[name].default
        shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
        v.add_argument(flag, dest=name, help=f"{text} (default {shown})", **kw)

    setting("--p", "p", "exponent p")
    setting("--modes", "n_modes", "Galerkin mode cutoff N_u", type=int)
    setting("--eig-dim", "eig_n", "eigenvalue subspace cutoff N", type=int)
    setting("--grid", "grid_m", "rectangles per quadrant edge M", type=int)
    setting("--psa-degree", "degree", "PSA degree", type=int)
    setting("--holder", "holder", "Holder exponents", type=lambda s: s.split(","), metavar="q,r,s")
    setting("--workers", "workers", "worker processes, 0 for one per CPU", type=int)
    v.add_argument("--out", default="certificate.json")
    v.add_argument("--coeffs-in", default=None)
    v.add_argument("--coeffs-out", default=None)
    v.add_argument("--pencil-out", default=None, help="dump the eigen pencil as JSON")
    v.add_argument("--config", default=None, help="JSON config file (flags win)")
    v.add_argument("--quiet", action="store_true")

    c = sub.add_parser("constants", help="print the verified constants")
    c.add_argument("--p")
    c.add_argument("--eig-dim", type=int, default=14)

    sub.add_parser("psa-selftest", help="reproduce the worked series examples")

    pd = sub.add_parser("plot-data", help="sample u_hat on a grid to CSV")
    pd.add_argument("--grid", type=int, default=64)
    pd.add_argument("--modes", type=int, default=20)
    pd.add_argument("--p", default="3/2")
    pd.add_argument("--coeffs-in", default=None)
    pd.add_argument("--out", default=None)
    return ap


def _config_from_args(args) -> RunConfig:
    merged = {}
    if args.config:
        try:
            with open(args.config) as fh:
                merged = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"config file {args.config}: {exc}") from None
        if not isinstance(merged, dict):
            raise UsageError(f"{args.config}: expected a JSON object")
        # every setting but a path, and the linf_qr a certificate's config echoes
        keys = {f.name for f in fields(RunConfig) if f.metadata["check"]} | {"linf_qr"}
        unknown = sorted(set(merged) - keys)
        if unknown:
            raise UsageError(f"{args.config}: unknown config keys {unknown}")
    for f in fields(RunConfig):
        if getattr(args, f.name, None) is not None:
            merged[f.name] = getattr(args, f.name)
    # an output path that cannot be written is refused before anything is solved
    for name in ("out", "coeffs_out", "pencil_out"):
        path = merged.get(name)
        if path and (os.path.isdir(path) or not os.access(os.path.dirname(path) or ".", os.W_OK)):
            raise UsageError(f"{name}: cannot write {path!r}: not a file in a writable directory")
    # a certificate's config echoes the L-infinity exponents, which p fixes
    qr = merged.pop("linf_qr", None)
    cfg = RunConfig(**merged)
    q, r = linf_exponents(cfg.p)
    if qr is not None and _rationals("linf_qr", qr) != (q, r):
        raise UsageError(
            f"linf_qr: p = {cfg.p} fixes (q,r) = ({q},{r}), the pair with r p' = 2 "
            "(the exact L2 norm of u_hat) and 2/q + 1/r = 1"
        )
    return cfg


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        if args.command == "verify":
            cfg = _config_from_args(args)
            code, cert = run_verify(cfg, log=None if args.quiet else sys.stderr)
            print(cert.to_json())
            if not cert.valid:
                print(f"stage failure: {cert.status}", file=sys.stderr)
            return code
        if args.command == "constants":
            return cmd_constants(args)
        if args.command == "psa-selftest":
            return psa_selftest()
        if args.command == "plot-data":
            return cmd_plot_data(args)
    except (UsageError, OSError) as exc:  # OSError: a plot-data path
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PowcertError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_STAGE
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
