"""Constants, the existence test, L-infinity bound, positivity proof, and
assembly of the final certificate.

The existence test: with a residual bound delta, an inverse-linearization
bound K, and the non-Lipschitz modulus g(t) = c t^(p-1) (so G(t) =
(c/p) t^p), a verified alpha > 0 with

    delta <= alpha/K - G(alpha)   and   K g(alpha) < 1

proves a solution within H^1_0-distance alpha of u_hat, unique in that
ball.  The L-infinity radius follows from the Sobolev/embedding chain on
the unit square, and positivity from comparing the negative-part bound
[|min u_hat| + r2]^(p-1) with the first Dirichlet eigenvalue 2 pi^2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from .errors import UnsupportedError, UsageError, VerificationFailure
from .galerkin import FourierApproximation
from .interval import PI, SQRT2, Interval, gamma_half, iv_pow
from .ivarray import IArr, blas_core

__all__ = [
    "AlphaSearch",
    "ProofCertificate",
    "poincare_c2",
    "embedding_constant",
    "sobolev_constant",
    "pointwise_bound_constants",
    "check_holder",
    "g_coefficient",
    "delta_from_residual",
    "find_alpha",
    "linf_bound",
    "positivity_check",
    "amplitude_enclosure",
    "build_certificate",
    "exact_l2_norm",
    "lambda1_interval",
]

_UNIT_AREA = Interval(1.0)

# flat-plate constants for the pointwise bound on the unit square
GAMMA0 = Interval.from_fraction(Fraction(1))
GAMMA1 = Interval.from_fraction(Fraction(11548, 10000))
GAMMA2 = Interval.from_fraction(Fraction(22361, 100000))


def lambda1_interval() -> Interval:
    """First Dirichlet eigenvalue of the unit square: 2 pi^2."""
    return Interval(2.0) * PI.sqr()


def poincare_c2() -> Interval:
    """||u||_L2 <= C2 ||grad u||_L2 on the unit square: C2 = 1/(sqrt(2) pi)."""
    return Interval(1.0) / (SQRT2 * PI)


def embedding_constant(p: Fraction) -> Interval:
    """C_p = |Omega|^((2-q)/(2q)) T_p for the embedding H^1_0 -> L^p on the
    unit square (|Omega| = 1), q = 2p/(2+p), with T_p the best Sobolev
    constant.  Supported for p > 2 whose gamma arguments (2+p)/p and
    (2p-2)/p are half-integers (p = 4 gives the closed form 1/pi)."""
    p = Fraction(p)
    if p <= 2:
        raise UsageError(
            f"embedding_constant requires p > 2 (got {p}); use poincare_c2 for p <= 2"
        )
    q = 2 * p / (2 + p)
    g1 = (2 + p) / p        # = 2/q
    g2 = (2 * p - 2) / p    # = 1 + 2 - 2/q
    if g1.denominator not in (1, 2) or g2.denominator not in (1, 2):
        raise UnsupportedError(
            f"gamma arguments {g1}, {g2} are not half-integers; C_{p} is out of scope"
        )
    inv_q = Fraction(1) / q
    t_p = (
        iv_pow(PI, Fraction(-1, 2))
        * iv_pow(Interval(2.0), -inv_q)
        * iv_pow(
            Interval.from_fraction(q - 1) / Interval.from_fraction(2 - q),
            1 - inv_q,
        )
        * iv_pow(
            (gamma_half(2) * gamma_half(2)) / (gamma_half(g1) * gamma_half(g2)),
            Fraction(1, 2),
        )
    )
    return iv_pow(_UNIT_AREA, (2 - q) / (2 * q)) * t_p


def sobolev_constant(k: Fraction) -> Interval:
    """C_k with ||u||_L^k <= C_k ||u||_V on the unit square.  k in [1, 2]
    reduces to C2 by Holder (|Omega| = 1); k > 2 goes through the best
    Sobolev constant."""
    k = Fraction(k)
    if k < 1:
        raise UsageError(f"L^{k} is not a norm")
    if k <= 2:
        return poincare_c2()
    return embedding_constant(k)


def pointwise_bound_constants() -> tuple[Interval, Interval, Interval]:
    """(c0, c1, c2) of the pointwise bound ||u||_inf <= c0 ||u||_2 +
    c1 ||grad u|| + c2 ||u_xx|| on the unit square:
    c0 = gamma0, c1 = sqrt(2/3) gamma1, c2 = (gamma2/3) sqrt(28/5)."""
    c0 = GAMMA0
    c1 = iv_pow(Interval.from_fraction(Fraction(2, 3)), Fraction(1, 2)) * GAMMA1
    c2 = GAMMA2 / Interval(3.0) * iv_pow(
        Interval.from_fraction(Fraction(28, 5)), Fraction(1, 2)
    )
    return c0, c1, c2


def check_holder(p: Fraction, triple) -> tuple:
    """The Holder triple (q, r, s) as Fractions, checked for g_coefficient:
    positive exponents with 1/q + 1/r + 1/s = 1 and q(p-1) >= 1."""
    p = Fraction(p)
    if len(triple) != 3:
        raise UsageError(f"Holder triple {triple}: expected three exponents q, r, s")
    q, r, s = (Fraction(t) for t in triple)
    if min(q, r, s) <= 0:
        raise UsageError(f"Holder triple {triple}: exponents must be positive")
    if 1 / q + 1 / r + 1 / s != 1:
        raise UsageError(f"Holder triple {triple}: exponents do not sum to 1")
    if q * (p - 1) < 1:
        raise UsageError(f"Holder triple {triple}: q(p-1) = {q * (p - 1)} < 1")
    return q, r, s


def g_coefficient(p: Fraction, triple=(4, 4, 2)) -> Interval:
    """Coefficient c of the modulus g(t) = c t^(p-1): c = p C_r C_s
    C_{q(p-1)}^{p-1} for a Holder triple with 1/q + 1/r + 1/s = 1 and
    q(p-1) >= 1.  The default (4,4,2) gives (3/2) C2^(3/2) C4 at p = 3/2."""
    p = Fraction(p)
    q, r, s = check_holder(p, triple)
    c_r = sobolev_constant(r)
    c_s = sobolev_constant(s)
    c_qp = sobolev_constant(q * (p - 1))
    return Interval.from_fraction(p) * c_r * c_s * iv_pow(c_qp, p - 1)


def delta_from_residual(res_norm: Interval, c2: Interval) -> Interval:
    return c2 * res_norm


@dataclass(frozen=True)
class AlphaSearch:
    alpha: float
    residual_margin: Interval   # (alpha/K - G(alpha)) - delta, verified >= 0
    contraction: Interval       # K g(alpha), verified < 1


def _alpha_conditions(alpha: float, delta: Interval, k: Interval, c: Interval, p: Fraction):
    a = Interval(alpha)
    g_big = (c / Interval.from_fraction(p)) * iv_pow(a, p)
    rhs = a / Interval(k.hi) - g_big
    margin = rhs - Interval(delta.hi)
    contraction = Interval(k.hi) * c * iv_pow(a, p - 1)
    return margin, contraction


def find_alpha(delta: Interval, k: Interval, c: Interval, p: Fraction) -> AlphaSearch:
    """Smallest-root search for delta <= alpha/K - (c/p) alpha^p, then outward
    inflation until both existence-test inequalities verify in interval
    arithmetic."""
    p = Fraction(p)
    # only delta.hi enters the test: a residual enclosure [0, x] gives
    # delta.lo = -5e-324 after outward rounding, which is fine
    if delta.hi < 0 or k.lo <= 0 or c.lo < 0:
        raise UsageError("delta must be nonnegative, K positive and c nonnegative")
    kf, cf, df = k.hi, c.hi, delta.hi
    pf = float(p)
    if cf == 0.0:
        alpha0 = kf * df
    else:
        alpha_peak = (1.0 / (kf * cf)) ** (1.0 / (pf - 1.0))
        def h(a):
            return a / kf - (cf / pf) * a**pf - df
        if h(alpha_peak) < 0.0:
            raise VerificationFailure(
                f"existence test infeasible: max of alpha/K - G(alpha) is "
                f"{h(alpha_peak) + df:.6g} < delta = {df:.6g}"
            )
        lo_a, hi_a = 0.0, alpha_peak
        for _ in range(200):
            mid = 0.5 * (lo_a + hi_a)
            if h(mid) < 0.0:
                lo_a = mid
            else:
                hi_a = mid
        alpha0 = hi_a
    if alpha0 == 0.0:
        alpha0 = 2.0**-80
    alpha = alpha0
    for _ in range(200):
        margin, contraction = _alpha_conditions(alpha, delta, k, c, p)
        if margin.lo >= 0.0 and contraction.hi < 1.0:
            return AlphaSearch(alpha, margin, contraction)
        alpha *= 1.0 + 2.0**-20
    raise VerificationFailure(
        "no verified alpha found near the floating-point root "
        f"{alpha0:.9g} (margin {margin.lo:.3g}, contraction {contraction.hi:.6g})"
    )


def exact_l2_norm(u_hat: FourierApproximation) -> Interval:
    """||u_hat||_L2 = sqrt(sum a_ij^2 / 4), by sine orthogonality, verified."""
    a = IArr.exact(u_hat.coeffs)
    s = a.sqr().sum().item() * Interval.from_fraction(Fraction(1, 4))
    return iv_pow(Interval(max(s.lo, 0.0), s.hi), Fraction(1, 2))


def linf_exponents(p: Fraction) -> tuple:
    """The (q, r) of linf_bound that the pipeline uses at p: r p' = 2 makes
    ||u_hat||_{L^{rp'}} the exact L2 norm, and 2/q + 1/r = 1 then fixes
    q = 2/(2-p); (4, 2) at p = 3/2."""
    p = Fraction(p)
    return Fraction(2) / (2 - p), 1 / (p - 1)


def linf_bound(eps: Interval, u_norm_rp: Interval, res_norm: Interval, p: Fraction) -> Interval:
    """The L-infinity radius

        r2 = c0 C2 eps + c1 eps
             + c2 { max(1, 2^((p'-1)/2)) p eps C_q
                    sqrt(||u||_{L^{rp'}}^{p'} + eps^{p'}/(p'+1) C_{rp'}^{p'})
                    + ||Delta u_hat + |u_hat|^(p-1) u_hat|| }

    with p' = 2(p-1), (c0, c1, c2) the pointwise_bound_constants and
    (q, r) = linf_exponents(p), so that rp' = 2: u_norm_rp must enclose
    the exact L2 norm of u_hat."""
    p = Fraction(p)
    q, r = linf_exponents(p)
    pp = 2 * (p - 1)
    c0, c1, c2 = pointwise_bound_constants()
    c_q = sobolev_constant(q)
    c_rpp = sobolev_constant(r * pp)
    factor = Interval(1.0)
    if pp > 1:
        factor = iv_pow(Interval(2.0), (pp - 1) / 2)
    inner = iv_pow(u_norm_rp, pp) + iv_pow(eps, pp) / Interval.from_fraction(
        pp + 1
    ) * iv_pow(c_rpp, pp)
    bracket = factor * Interval.from_fraction(p) * eps * c_q * iv_pow(
        inner, Fraction(1, 2)
    ) + res_norm
    return c0 * poincare_c2() * eps + c1 * eps + c2 * bracket


@dataclass
class PositivityResult:
    verdict: bool
    neg_part_bound: Interval    # [|min u_hat| + r2]^(p-1)


def positivity_check(r2: Interval, p: Fraction, ranges: tuple) -> PositivityResult:
    """Negative-part bound [|min u_hat| + r2]^(p-1) against 2 pi^2, plus an
    interior witness rectangle where u_hat - r2 is verifiably positive;
    ranges are the sweep's range bounds of u_hat (quad.pipeline_sweep)."""
    p = Fraction(p)
    rng_min, _, witness_lo, _ = ranges
    # min over the closure is <= 0 (boundary) and >= rng_min
    mabs = Interval(0.0, max(0.0, -rng_min))
    # mabs.lo + r2.hi = r2.hi exactly: only the upper end is rounded
    base = Interval(r2.hi, (mabs + Interval(r2.hi)).hi)
    base = Interval(max(base.lo, 0.0), max(base.hi, 0.0))  # true base is >= 0
    bound = iv_pow(base, p - 1)
    # the witness: the best rect lower bound of u_hat minus r2 is positive
    verdict = bool(bound.hi < lambda1_interval().lo and witness_lo - r2.hi > 0.0)
    return PositivityResult(verdict, bound)


def amplitude_enclosure(r2: Interval, ranges: tuple) -> Interval:
    """Amplitude band of the verified solution: the peak of u_hat bracketed
    by the sweep's rectangle ranges, widened by the L-infinity radius."""
    _, rng_max, _, center_lo = ranges
    lo = math.nextafter(center_lo - r2.hi, -math.inf)
    hi = math.nextafter(rng_max + r2.hi, math.inf)
    return Interval(lo, hi)


# ----------------------------------------------------------------------
# certificate
# ----------------------------------------------------------------------

# JSON codecs (dump, load) of the body fields; None is stored as null.  Interval
# endpoints and r1 are repr() decimal strings, which parse back to the identical
# binary64 values (outward rounding is then trivially preserved).
_PLAIN = (lambda v: v, lambda v: v)
_FRACTION = (str, Fraction)
_FLOAT = (repr, float)
_INTERVAL = (
    lambda iv: {"lo": repr(iv.lo), "hi": repr(iv.hi)},
    lambda obj: Interval(float(obj["lo"]), float(obj["hi"])),
)


def _body(key: str, codec=_PLAIN, optional: bool = False, **kw):
    """A certificate body field stored under key through codec; a body
    read back may omit an optional key, which then takes the default."""
    return field(metadata={"key": key, "codec": codec, "optional": optional}, **kw)


@dataclass
class ProofCertificate:
    """The certificate: each body field declares its JSON key and codec;
    the timestamp, the numpy version and the OpenBLAS kernel go to meta,
    outside the deterministic body."""

    status: str = _body("status")   # "valid" or "failed: <stage>"
    p: Fraction = _body("p", _FRACTION)
    res_norm: Interval | None = _body("residual_norm", _INTERVAL, default=None)
    delta: Interval | None = _body("delta", _INTERVAL, default=None)
    k_bound: Interval | None = _body("K", _INTERVAL, default=None)
    g_coeff: Interval | None = _body("g_coefficient", _INTERVAL, default=None)
    alpha_r1: float | None = _body("r1", _FLOAT, default=None)
    r2: Interval | None = _body("r2", _INTERVAL, default=None)
    neg_part_bound: Interval | None = _body("neg_part_bound", _INTERVAL, default=None)
    positive: bool | None = _body("positive", default=None)
    amplitude: Interval | None = _body("amplitude", _INTERVAL, default=None)
    failure: str | None = _body("failure", optional=True, default=None)
    config: dict = _body("config", optional=True, default_factory=dict)
    timestamp: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())
    numpy: str | None = np.__version__
    blas_core: str | None = field(default_factory=blas_core)

    @property
    def valid(self) -> bool:
        return self.status == "valid"

    def recheck(self) -> bool:
        """Re-verify the existence-test inequalities from the stored
        intervals alone (certificate self-consistency)."""
        if not self.valid:
            return False
        margin, contraction = _alpha_conditions(
            self.alpha_r1, self.delta, self.k_bound, self.g_coeff, self.p
        )
        return bool(margin.lo >= 0.0 and contraction.hi < 1.0 and self.positive)

    def body_dict(self) -> dict:
        body = {}
        for f in _BODY_FIELDS:
            value = getattr(self, f.name)
            dump, _ = f.metadata["codec"]
            body[f.metadata["key"]] = None if value is None else dump(value)
        return body

    def to_json(self) -> str:
        doc = {"certificate": self.body_dict(), "meta": {key: getattr(self, key) for key in _META}}
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProofCertificate":
        """Parse a certificate document; text that is not such a document is
        a UsageError, which names the key a body lacks or cannot read."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise UsageError(f"certificate JSON: {exc}") from exc
        doc = doc if isinstance(doc, dict) else {}
        body, meta = doc.get("certificate"), doc.get("meta", {})
        if not isinstance(body, dict) or not isinstance(meta, dict):
            raise UsageError('certificate JSON: expected a "certificate" body and "meta" object')
        kw = {}
        for f in _BODY_FIELDS:
            key = f.metadata["key"]
            if key not in body:
                if f.metadata["optional"]:
                    continue
                raise UsageError(f"certificate body lacks the key {key!r}")
            _, load = f.metadata["codec"]
            try:
                kw[f.name] = None if body[key] is None else load(body[key])
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"certificate body key {key!r}: {exc!r}") from exc
        return cls(**kw, **{key: meta.get(key, missing) for key, missing in _META.items()})


_BODY_FIELDS = [f for f in fields(ProofCertificate) if "key" in f.metadata]
# the meta keys, and the value a certificate read back without one takes
_META = {"timestamp": "", "numpy": None, "blas_core": None}


def build_certificate(
    p: Fraction,
    config: dict,
    res_norm: Interval,
    delta: Interval,
    k_bound: Interval,
    g_coeff: Interval,
    alpha: AlphaSearch,
    r2: Interval,
    positivity: PositivityResult,
    amplitude: Interval,
) -> ProofCertificate:
    cert = ProofCertificate(
        status="valid",
        p=Fraction(p),
        res_norm=res_norm,
        delta=delta,
        k_bound=k_bound,
        g_coeff=g_coeff,
        alpha_r1=alpha.alpha,
        r2=r2,
        neg_part_bound=positivity.neg_part_bound,
        positive=positivity.verdict,
        amplitude=amplitude,
        config=dict(config),
    )
    if not positivity.verdict:
        cert.status, cert.failure = "failed: positivity", "negative-part bound or witness failed"
    elif not cert.recheck():
        cert.status, cert.failure = "failed: self-check", "stored intervals do not re-verify"
    return cert


def failed_certificate(p: Fraction, config: dict, stage: str, detail: str) -> ProofCertificate:
    return ProofCertificate(
        status=f"failed: {stage}", p=Fraction(p), failure=detail, config=dict(config)
    )
