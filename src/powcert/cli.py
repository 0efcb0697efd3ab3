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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .certify import (
    ProofCertificate,
    amplitude_enclosure,
    build_certificate,
    check_holder,
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
from .galerkin import FourierApproximation, GalerkinConfig, newton_solve
from .interval import Interval
from .ivarray import single_blas_thread
from .quad import QuadConfig, pipeline_sweep, sup_weight
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


@dataclass
class RunConfig:
    p: Fraction = Fraction(3, 2)
    n_modes: int = 60           # N_u
    eig_n: int = 14             # eigenvalue subspace cutoff N
    grid_m: int = 16            # rectangles per quadrant edge
    degree: int = 10            # PSA degree for the pipeline models
    holder: tuple = (4, 4, 2)
    workers: int = 0            # 0 = one per CPU this process may use
    max_depth: int = 12
    res_width: float = 0.02     # width budget for the residual-norm square
    gram_width: float = 1e-5    # width budget per gram table entry
    tail_threshold: float = 2.0
    galerkin_tol: float = 1e-11
    out: str | None = None
    coeffs_in: str | None = None
    coeffs_out: str | None = None
    pencil_out: str | None = None

    def __post_init__(self):
        self.p = Fraction(self.p)
        if not (1 < self.p < 2):
            raise UsageError(f"p must lie in (1, 2), got {self.p}")
        # bool is a subclass of int, so a JSON true would pass for 1
        for name in ("n_modes", "eig_n", "grid_m", "degree", "max_depth", "workers"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise UsageError(f"{name} must be an integer, got {value!r}")
        if self.n_modes < 1 or self.eig_n < 1 or self.grid_m < 1:
            raise UsageError("sizes must be >= 1")
        if self.workers == 0:
            self.workers = _available_cpus()
        self.quad()  # the sweep's own checks: degree, max_depth and workers
        for name in ("res_width", "gram_width", "tail_threshold", "galerkin_tol"):
            value = getattr(self, name)
            if value is None and name.endswith("_width"):
                continue  # no width budget
            if isinstance(value, bool) or not (isinstance(value, (int, float)) and 0 < value < math.inf):
                raise UsageError(f"{name} must be finite and > 0, got {value!r}")
        self.holder = check_holder(self.p, self.holder)
        try:
            # the existence-test stage's coefficient, which would otherwise
            # reject an out-of-scope triple after the sweep
            g_coefficient(self.p, self.holder)
        except UnsupportedError as exc:
            triple = ",".join(map(str, self.holder))
            raise UsageError(f"Holder triple {triple}: {exc}") from exc
        try:
            sobolev_constant(linf_exponents(self.p)[0])  # the linf-bound stage's C_q
        except UnsupportedError as exc:
            raise UsageError(f"p = {self.p}: {exc}") from exc

    def echo(self) -> dict:
        return {
            "p": str(self.p),
            "n_modes": self.n_modes,
            "eig_n": self.eig_n,
            "grid_m": self.grid_m,
            "degree": self.degree,
            "holder": [str(h) for h in self.holder],
            "linf_qr": [str(v) for v in linf_exponents(self.p)],
            "max_depth": self.max_depth,
            "res_width": self.res_width,
            "gram_width": self.gram_width,
            "tail_threshold": self.tail_threshold,
            "galerkin_tol": self.galerkin_tol,
        }

    def quad(self) -> QuadConfig:
        return QuadConfig(
            degree=self.degree,
            grid_m=self.grid_m,
            max_depth=self.max_depth,
            workers=self.workers,
        )


def _solve_or_load(cfg: RunConfig) -> FourierApproximation:
    if cfg.coeffs_in:
        with open(cfg.coeffs_in) as fh:
            return FourierApproximation.from_json(fh.read())
    return newton_solve(GalerkinConfig(n_modes=cfg.n_modes, p=cfg.p, tol=cfg.galerkin_tol))


# one BLAS thread: Galerkin's leggauss and the spectral stage make products
# too small for a second one
@single_blas_thread()
def run_pipeline(cfg: RunConfig, log=None) -> ProofCertificate:
    """galerkin -> quad -> spectral -> certify; any stage failure yields a
    failed certificate naming the stage (never a silent partial success).
    A failure that names its own stage (VerificationFailure.stage) keeps it."""
    echo = cfg.echo()

    def say(msg):
        if log:
            print(msg, file=log, flush=True)

    stage = "galerkin"
    try:
        u_hat = _solve_or_load(cfg)
        say(f"galerkin: amplitude ~ {u_hat.center_value():.4f}")
        if cfg.coeffs_out:
            with open(cfg.coeffs_out, "w") as fh:
                fh.write(u_hat.to_json())

        stage = "integration"
        indices = symmetric_indices(cfg.eig_n)
        res_norm, gram, ranges, stats = pipeline_sweep(
            u_hat,
            cfg.p,
            indices,
            cfg.quad(),
            res_width=cfg.res_width,
            gram_width=cfg.gram_width,
        )
        say(
            f"sweep: residual={res_norm} rects={stats['rects']} "
            f"over_budget={stats['over_budget']} max_hi={ranges[1]:.6g}"
        )

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
            with open(cfg.pencil_out, "w") as fh:
                json.dump(pencil.to_json_dict(), fh, indent=1)

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
        named = getattr(exc, "stage", None) or stage
        return failed_certificate(cfg.p, echo, named, str(exc))

    return build_certificate(
        cfg.p, echo, res_norm, delta, k_bound, c_coeff, alpha, r2, pos, amp
    )


def run_verify(cfg: RunConfig, log=None) -> tuple[int, ProofCertificate]:
    cert = run_pipeline(cfg, log=log)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(cert.to_json())
    return (EXIT_OK if cert.valid else EXIT_STAGE), cert


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def psa_selftest(out=None) -> int:
    """Re-run the worked series-arithmetic examples; 0 iff all reproduce."""
    from .interval import Interval as Iv
    from .psa import ElemFn, PowerSeries1D, ps_compose

    out = out or sys.stdout
    ulp = 2.0**-52
    dom = Iv(0.0, 0.1)
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
    # C_p for p <= 2 is the Holder reduction to C2 on the unit square,
    # which needs p >= 1; below 1 there is no embedding constant
    if args.p is not None and args.p < 1:
        raise UsageError(f"--p must be >= 1, got {args.p}")
    c_p = None
    if args.p is not None and args.p > 2:
        try:
            c_p = embedding_constant(args.p)
        except UnsupportedError as exc:
            raise UsageError(f"--p {args.p}: {exc}") from exc
    out = out or sys.stdout
    print(f"C2      = {poincare_c2()}", file=out)
    print(f"C4      = {embedding_constant(Fraction(4))}", file=out)
    print(f"C_N(N={args.eig_dim}) = {projection_constant(args.eig_dim)}", file=out)
    print(f"lambda1 = {lambda1_interval()}", file=out)
    if args.p is not None:
        p = args.p
        if c_p is not None:
            print(f"C_{p}    = {c_p}", file=out)
        else:
            print(f"C_{p}    = {poincare_c2()} (Holder reduction to C2)", file=out)
    return EXIT_OK


def cmd_plot_data(args, out_stream=sys.stderr) -> int:
    if args.grid < 1:
        raise UsageError(f"--grid must be >= 1, got {args.grid}")
    if args.coeffs_in:
        with open(args.coeffs_in) as fh:
            u = FourierApproximation.from_json(fh.read())
    else:
        u = newton_solve(GalerkinConfig(n_modes=args.modes, p=args.p))
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


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _parse_triple(text: str):
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected q,r,s")
    return tuple(_parse_fraction(t) for t in parts)


def build_parser() -> _Parser:
    ap = _Parser(prog="powcert", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the full verification pipeline")
    # configuration flags default to None, so that a flag counts as given
    # only when passed; RunConfig holds the defaults
    v.add_argument("--p", type=_parse_fraction, help="exponent p (default 3/2)")
    v.add_argument("--modes", type=int, help="Galerkin mode cutoff N_u (default 60)")
    v.add_argument("--eig-dim", type=int, help="eigenvalue subspace cutoff N (default 14)")
    v.add_argument("--grid", type=int, help="rectangles per quadrant edge M (default 16)")
    v.add_argument("--psa-degree", type=int, help="default 10")
    v.add_argument("--holder", type=_parse_triple, metavar="q,r,s", help="default 4,4,2")
    v.add_argument("--workers", type=int, help="default 0: available parallelism")
    v.add_argument("--out", default="certificate.json")
    v.add_argument("--coeffs-in", default=None)
    v.add_argument("--coeffs-out", default=None)
    v.add_argument("--pencil-out", default=None, help="dump the eigen pencil as JSON")
    v.add_argument("--config", default=None, help="JSON config file (flags win)")
    v.add_argument("--quiet", action="store_true")

    c = sub.add_parser("constants", help="print the verified constants")
    c.add_argument("--p", type=_parse_fraction, default=None)
    c.add_argument("--eig-dim", type=int, default=14)

    sub.add_parser("psa-selftest", help="reproduce the worked series examples")

    pd = sub.add_parser("plot-data", help="sample u_hat on a grid to CSV")
    pd.add_argument("--grid", type=int, default=64)
    pd.add_argument("--modes", type=int, default=20)
    pd.add_argument("--p", type=_parse_fraction, default=Fraction(3, 2))
    pd.add_argument("--coeffs-in", default=None)
    pd.add_argument("--out", default=None)
    return ap


# config-file keys with the verify flag that overrides each
_FLAG_KEYS = {
    "p": "p",
    "n_modes": "modes",
    "eig_n": "eig_dim",
    "grid_m": "grid",
    "degree": "psa_degree",
    "holder": "holder",
    "workers": "workers",
}
_FILE_ONLY_KEYS = {
    "res_width", "gram_width", "tail_threshold", "galerkin_tol", "max_depth", "linf_qr"
}


def _config_from_args(args) -> RunConfig:
    merged = {}
    if args.config:
        with open(args.config) as fh:
            merged = json.load(fh)
        if not isinstance(merged, dict):
            raise UsageError(f"{args.config}: expected a JSON object")
        unknown = sorted(set(merged) - set(_FLAG_KEYS) - _FILE_ONLY_KEYS)
        if unknown:
            raise UsageError(f"{args.config}: unknown config keys {unknown}")
    for key, flag in _FLAG_KEYS.items():
        if getattr(args, flag) is not None:
            merged[key] = getattr(args, flag)
    # exponent lists as a certificate's config echoes them: ["4", "2"]
    for key in ("holder", "linf_qr"):
        if key in merged:
            if not isinstance(merged[key], (list, tuple)):
                raise UsageError(f"{key}: expected a list, got {merged[key]!r}")
            try:
                merged[key] = tuple(Fraction(str(v)) for v in merged[key])
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"{key}: not a list of rational numbers: {exc}") from exc
    # a certificate's config echoes the L-infinity exponents, which p fixes
    qr = merged.pop("linf_qr", None)
    cfg = RunConfig(
        **merged,
        out=args.out,
        coeffs_in=args.coeffs_in,
        coeffs_out=args.coeffs_out,
        pencil_out=args.pencil_out,
    )
    q, r = linf_exponents(cfg.p)
    if qr is not None and qr != (q, r):
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
            log = None if args.quiet else sys.stderr
            code, cert = run_verify(cfg, log=log)
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
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PowcertError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_STAGE
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
