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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction

from .errors import UnsupportedError, UsageError, VerificationFailure
from .galerkin import FourierApproximation
from .interval import PI, SQRT2, Interval, gamma_half, iv_pow
from .ivarray import IArr

__all__ = [
    "VerificationConstants",
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


def embedding_constant(p: Fraction, area: Interval | None = None) -> Interval:
    """C_p = |Omega|^((2-q)/(2q)) T_p for the embedding H^1_0 -> L^p in the
    plane, q = 2p/(2+p), with T_p the best Sobolev constant.  Supported for
    p > 2 whose gamma arguments (2+p)/p and (2p-2)/p are half-integers
    (p = 4 gives the closed form 1/pi)."""
    p = Fraction(p)
    if p <= 2:
        raise UsageError(
            f"embedding_constant requires p > 2 (got {p}); use poincare_c2 for p <= 2"
        )
    area = _UNIT_AREA if area is None else area
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
    return iv_pow(area, (2 - q) / (2 * q)) * t_p


def sobolev_constant(k: Fraction, area: Interval | None = None) -> Interval:
    """C_k with ||u||_L^k <= C_k ||u||_V on the unit square.  k in [1, 2]
    reduces to C2 by Holder (|Omega| = 1); k > 2 goes through the best
    Sobolev constant."""
    k = Fraction(k)
    if k < 1:
        raise UsageError(f"L^{k} is not a norm")
    if k <= 2:
        return poincare_c2()
    return embedding_constant(k, area)


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


@dataclass(frozen=True)
class VerificationConstants:
    p: Fraction
    c2: Interval
    linf_c0: Interval
    linf_c1: Interval
    linf_c2: Interval

    @classmethod
    def for_problem(cls, p: Fraction):
        c0, c1, c2 = pointwise_bound_constants()
        return cls(p=Fraction(p), c2=poincare_c2(), linf_c0=c0, linf_c1=c1, linf_c2=c2)


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
    verified: bool


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
                f"{h(alpha_peak) + df:.6g} < delta = {df:.6g}",
                stage="existence-test",
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
            return AlphaSearch(alpha, margin, contraction, True)
        alpha *= 1.0 + 2.0**-20
    raise VerificationFailure(
        "no verified alpha found near the floating-point root "
        f"{alpha0:.9g} (margin {margin.lo:.3g}, contraction {contraction.hi:.6g})",
        stage="existence-test",
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


def linf_bound(
    eps: Interval,
    u_norm_rp: Interval,
    res_norm: Interval,
    consts: VerificationConstants,
    qr: tuple = (4, 2),
) -> Interval:
    """The L-infinity radius

        r2 = c0 C2 eps + c1 eps
             + c2 { max(1, 2^((p'-1)/2)) p eps C_q
                    sqrt(||u||_{L^{rp'}}^{p'} + eps^{p'}/(p'+1) C_{rp'}^{p'})
                    + ||Delta u_hat + |u_hat|^(p-1) u_hat|| }

    with p' = 2(p-1).  u_norm_rp must enclose ||u_hat||_{L^{rp'}} (the
    default (q, r) = (4, 2) gives rp' = 2 at p = 3/2, the exact L2 norm)."""
    p = consts.p
    q, r = (Fraction(t) for t in qr)
    pp = 2 * (p - 1)
    if q < 2 or r * (p - 1) < 1 or Fraction(2) / q + Fraction(1) / r != 1:
        raise UsageError(f"(q, r) = {qr} violates the exponent conditions")
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
    return consts.linf_c0 * consts.c2 * eps + consts.linf_c1 * eps + consts.linf_c2 * bracket


@dataclass
class PositivityResult:
    verdict: bool
    neg_part_bound: Interval    # [|min u_hat| + r2]^(p-1)
    lambda1: Interval
    witness_margin: float       # best rect lower bound of u_hat minus r2


def positivity_check(r2: Interval, p: Fraction, ranges: tuple) -> PositivityResult:
    """Negative-part bound [|min u_hat| + r2]^(p-1) against 2 pi^2, plus an
    interior witness rectangle where u_hat - r2 is verifiably positive;
    ranges are the sweep's range bounds of u_hat (quad.pipeline_sweep)."""
    p = Fraction(p)
    rng_min, _, witness_lo, _ = ranges
    lam1 = lambda1_interval()
    # min over the closure is <= 0 (boundary) and >= rng_min
    mabs = Interval(0.0, max(0.0, -rng_min))
    # mabs.lo + r2.hi = r2.hi exactly: only the upper end is rounded
    base = Interval(r2.hi, (mabs + Interval(r2.hi)).hi)
    base = Interval(max(base.lo, 0.0), max(base.hi, 0.0))  # true base is >= 0
    bound = iv_pow(base, p - 1)
    witness_margin = witness_lo - r2.hi
    verdict = bool(bound.hi < lam1.lo and witness_margin > 0.0)
    return PositivityResult(verdict, bound, lam1, witness_margin)


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

def _iv_json(iv: Interval | None):
    if iv is None:
        return None
    return {"lo": repr(iv.lo), "hi": repr(iv.hi)}


def _iv_parse(obj) -> Interval | None:
    if obj is None:
        return None
    return Interval(float(obj["lo"]), float(obj["hi"]))


@dataclass
class ProofCertificate:
    status: str                      # "valid" or "failed: <stage>"
    p: Fraction
    res_norm: Interval | None = None
    delta: Interval | None = None
    k_bound: Interval | None = None
    g_coeff: Interval | None = None
    alpha_r1: float | None = None
    r2: Interval | None = None
    neg_part_bound: Interval | None = None
    positive: bool | None = None
    amplitude: Interval | None = None
    failure: str | None = None
    config: dict = field(default_factory=dict)
    timestamp: str = ""

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
        return {
            "status": self.status,
            "p": str(self.p),
            "residual_norm": _iv_json(self.res_norm),
            "delta": _iv_json(self.delta),
            "K": _iv_json(self.k_bound),
            "g_coefficient": _iv_json(self.g_coeff),
            "r1": repr(self.alpha_r1) if self.alpha_r1 is not None else None,
            "r2": _iv_json(self.r2),
            "neg_part_bound": _iv_json(self.neg_part_bound),
            "positive": self.positive,
            "amplitude": _iv_json(self.amplitude),
            "failure": self.failure,
            "config": self.config,
        }

    def to_json(self) -> str:
        # interval endpoints are emitted as repr() decimal strings, which
        # parse back to the identical binary64 values (outward rounding is
        # then trivially preserved)
        doc = {"certificate": self.body_dict(), "meta": {"timestamp": self.timestamp}}
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProofCertificate":
        doc = json.loads(text)
        body = doc["certificate"]
        return cls(
            status=body["status"],
            p=Fraction(body["p"]),
            res_norm=_iv_parse(body["residual_norm"]),
            delta=_iv_parse(body["delta"]),
            k_bound=_iv_parse(body["K"]),
            g_coeff=_iv_parse(body["g_coefficient"]),
            alpha_r1=float(body["r1"]) if body["r1"] is not None else None,
            r2=_iv_parse(body["r2"]),
            neg_part_bound=_iv_parse(body["neg_part_bound"]),
            positive=body["positive"],
            amplitude=_iv_parse(body["amplitude"]),
            failure=body.get("failure"),
            config=body.get("config", {}),
            timestamp=doc.get("meta", {}).get("timestamp", ""),
        )


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
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    if not alpha.verified:
        cert.status = "failed: existence-test"
        cert.failure = "alpha not verified"
    elif not positivity.verdict:
        cert.status = "failed: positivity"
        cert.failure = "negative-part bound or witness failed"
    elif not cert.recheck():
        cert.status = "failed: self-check"
        cert.failure = "stored intervals do not re-verify"
    return cert


def failed_certificate(p: Fraction, config: dict, stage: str, detail: str) -> ProofCertificate:
    return ProofCertificate(
        status=f"failed: {stage}",
        p=Fraction(p),
        failure=detail,
        config=dict(config),
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
