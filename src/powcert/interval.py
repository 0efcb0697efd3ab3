"""Outward-rounded interval arithmetic with verified elementary functions.

Every operation returns an interval that provably contains the exact real
result of the operation applied to any points of the operand intervals
(enclosure soundness).  Directed rounding is emulated while staying in the
default round-to-nearest mode: each endpoint computed in RTN is nudged one
ulp outward with math.nextafter, which covers the <= 1/2 ulp rounding error
of +, -, *, / and sqrt in every range including subnormals.  No FPU state is
touched, so all operations are thread-safe and values are immutable.

Elementary functions (exp, log, sin, cos) are self-contained: argument
reduction against stored/derived enclosures of pi and ln 2, then a truncated
Taylor / atanh series evaluated in interval arithmetic with an explicit
Lagrange remainder term.  sqrt leans on the IEEE-754 guarantee that
math.sqrt is correctly rounded.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import IntervalDomainError, UnsupportedError

__all__ = [
    "Interval",
    "iv_pow",
    "gamma_half",
    "PI",
    "TWO_PI",
    "HALF_PI",
    "LN2",
    "SQRT_PI",
]

_INF = math.inf

def _dn(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


class Interval:
    """Closed real interval [lo, hi] with finite binary64 endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise IntervalDomainError(f"non-finite endpoints [{lo}, {hi}]")
        if lo > hi:
            raise IntervalDomainError(f"inverted interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_fraction(cls, f) -> "Interval":
        """Tightest interval containing an exact rational."""
        f = Fraction(f)
        x = float(f)  # round-to-nearest
        if not math.isfinite(x):
            raise IntervalDomainError(f"rational {f} overflows binary64")
        fx = Fraction(x)
        if fx == f:
            return cls(x, x)
        if fx < f:
            return cls(x, _up(x))
        return cls(_dn(x), x)

    @classmethod
    def hull_of(cls, a: "Interval", b: "Interval") -> "Interval":
        return cls(min(a.lo, b.lo), max(a.hi, b.hi))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        return m

    @property
    def width(self) -> float:
        """Diameter, rounded to nearest (informational, not load-bearing)."""
        return self.hi - self.lo

    @property
    def mag(self) -> float:
        """max |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    @property
    def mig(self) -> float:
        """min |x| over the interval."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def contains(self, other) -> bool:
        if isinstance(other, Interval):
            return self.lo <= other.lo and other.hi <= self.hi
        return self.lo <= float(other) <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def intersect(self, other: "Interval") -> "Interval":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise IntervalDomainError(f"empty intersection of {self} and {other}")
        return Interval(lo, hi)

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Interval":
        if isinstance(x, Interval):
            return x
        if isinstance(x, Fraction):
            return Interval.from_fraction(x)
        return Interval(float(x))

    def __add__(self, other):
        o = self._coerce(other)
        return Interval(_dn(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Interval(_dn(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other):
        o = self._coerce(other)
        p1 = self.lo * o.lo
        p2 = self.lo * o.hi
        p3 = self.hi * o.lo
        p4 = self.hi * o.hi
        return Interval(_dn(min(p1, p2, p3, p4)), _up(max(p1, p2, p3, p4)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.lo <= 0.0 <= o.hi:
            raise IntervalDomainError(f"division by {o} which contains zero")
        q1 = self.lo / o.lo
        q2 = self.lo / o.hi
        q3 = self.hi / o.lo
        q4 = self.hi / o.hi
        return Interval(_dn(min(q1, q2, q3, q4)), _up(max(q1, q2, q3, q4)))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def sqr(self) -> "Interval":
        """Tight square (knows the result is >= 0)."""
        a, b = abs(self.lo), abs(self.hi)
        lo = 0.0 if self.lo <= 0.0 <= self.hi else _dn(min(a, b) * min(a, b))
        return Interval(lo, _up(max(a, b) * max(a, b)))


# ----------------------------------------------------------------------
# stored / derived constants
# ----------------------------------------------------------------------

# math.pi is the nearest double below pi; one ulp up bounds it from above.
PI = Interval(math.pi, _up(math.pi))
TWO_PI = Interval(_dn(2.0 * PI.lo), _up(2.0 * PI.hi))
HALF_PI = Interval(_dn(0.5 * PI.lo), _up(0.5 * PI.hi))


def _factorial_inverse_table(n: int):
    return [Interval.from_fraction(Fraction(1, math.factorial(i))) for i in range(n + 1)]


_INV_FACT = _factorial_inverse_table(24)


def _derive_ln2() -> Interval:
    # ln 2 = 2 atanh(1/3) = 2 sum t^(2i+1)/(2i+1), t = 1/3; tail after i = K is
    # bounded by 2 t^(2K+3) / ((2K+3)(1 - t^2)).
    t = Interval(1.0) / Interval(3.0)
    s = t.sqr()
    acc = Interval(0.0)
    for i in range(23, -1, -1):
        acc = acc * s + Interval(1.0) / Interval(2 * i + 1)
    core = Interval(2.0) * t * acc
    tail = 2.0 * (1.0 / 3.0) ** 49 / (49.0 * (1 - 1.0 / 9.0))
    tail = _up(_up(tail) * (1.0 + 1e-13))
    return core + Interval(-tail, tail)


LN2 = _derive_ln2()


# ----------------------------------------------------------------------
# elementary functions
# ----------------------------------------------------------------------

def iv_sqrt(x: Interval) -> Interval:
    if x.lo < 0.0:
        raise IntervalDomainError(f"sqrt of {x} with negative part")
    lo = 0.0 if x.lo == 0.0 else _dn(math.sqrt(x.lo))
    hi = _up(math.sqrt(x.hi))
    return Interval(lo, hi)


SQRT_PI = iv_sqrt(PI)
SQRT2 = iv_sqrt(Interval(2.0))

_EXP_TERMS = 16       # polynomial degree for exp core
_LOG_TERMS = 11       # odd atanh terms for log core
_SIN_DEG = 17         # last sine Taylor degree kept
_COS_DEG = 16


def _exp_point(x: float) -> Interval:
    if x > 709.7:
        raise IntervalDomainError(f"exp({x}) overflows binary64")
    if x < -745.2:
        return Interval(0.0, 5e-324)
    k = int(round(x / LN2.mid))
    r = Interval(x) - LN2 * k
    rm = r.mag
    # after reduction |r| <= ln2/2 + slack
    if rm > 0.36:  # pragma: no cover - reduction always lands below this
        raise IntervalDomainError("exp argument reduction failed")
    acc = _INV_FACT[_EXP_TERMS]
    for i in range(_EXP_TERMS - 1, -1, -1):
        acc = acc * r + _INV_FACT[i]
    # Lagrange tail: sum_{i>N} r^i/i! <= rm^(N+1)/(N+1)! * 1/(1 - rm/(N+2))
    tail = _up(
        rm ** (_EXP_TERMS + 1)
        / math.factorial(_EXP_TERMS + 1)
        / (1.0 - rm / (_EXP_TERMS + 2))
        * (1.0 + 1e-10)
    )
    acc = acc + Interval(-tail, tail)
    lo = math.ldexp(acc.lo, k)
    hi = math.ldexp(acc.hi, k)
    # ldexp only rounds on subnormal underflow; nudge covers it
    return Interval(max(0.0, _dn(lo)), _up(hi))


def iv_exp(x: Interval) -> Interval:
    a = _exp_point(x.lo)
    b = _exp_point(x.hi)
    return Interval(a.lo, b.hi)


_SQRT_HALF = 0.7071067811865476


def _log_point(x: float) -> Interval:
    if x <= 0.0:
        raise IntervalDomainError(f"log({x}) domain error")
    m, e = math.frexp(x)  # x = m 2^e with m in [0.5, 1)
    if m < _SQRT_HALF:
        m *= 2.0  # exact
        e -= 1
    # m in [sqrt(1/2), sqrt(2)), |t| <= 0.1716
    t = (Interval(m) - 1.0) / (Interval(m) + 1.0)
    s = t.sqr()
    acc = Interval(1.0) / Interval(2 * _LOG_TERMS + 1)
    for i in range(_LOG_TERMS - 1, -1, -1):
        acc = acc * s + Interval(1.0) / Interval(2 * i + 1)
    core = Interval(2.0) * t * acc
    tm = t.mag
    tail = _up(
        2.0 * tm ** (2 * _LOG_TERMS + 3) / ((2 * _LOG_TERMS + 3) * (1.0 - tm * tm))
        * (1.0 + 1e-10)
    )
    return core + Interval(-tail, tail) + LN2 * e


def iv_log(x: Interval) -> Interval:
    if x.lo <= 0.0:
        raise IntervalDomainError(f"log of {x} touching (-inf, 0]")
    a = _log_point(x.lo)
    b = _log_point(x.hi)
    return Interval(a.lo, b.hi)


def _sin_core(rho):
    """sin rho for |rho| <= ~0.8 (after quadrant reduction): an Interval, or
    entry by entry an IArr, with the bits each entry gets alone."""
    s = rho.sqr()
    acc = Interval(0.0)
    for d in range(_SIN_DEG, 0, -2):
        sign = -1.0 if (d // 2) % 2 else 1.0
        acc = s * acc + _INV_FACT[d] * sign
    return _with_tail(acc * rho, rho, _SIN_DEG + 2)


def _cos_core(rho):
    """cos rho, as _sin_core."""
    s = rho.sqr()
    acc = Interval(0.0)
    for d in range(_COS_DEG, -1, -2):
        sign = -1.0 if (d // 2) % 2 else 1.0
        acc = s * acc + _INV_FACT[d] * sign
    return _with_tail(acc, rho, _COS_DEG + 2)


def _with_tail(acc, rho, order: int):
    """acc widened by the Lagrange tail |rho|^order / order! of a sine or
    cosine series and cut to [-1, 1]; rho an Interval or an IArr."""
    def tail(m: float) -> float:
        return _up(m**order / math.factorial(order) * (1.0 + 1e-10))

    if isinstance(rho, Interval):
        t = tail(rho.mag)
        out = acc + Interval(-t, t)
    else:  # entry by entry in Python floats, so each entry has its own bits
        t = [tail(m) for m in rho.mag().tolist()]
        out = acc + type(rho)([-v for v in t], t)
    return out.intersect(Interval(-1.0, 1.0))


def _cycle(j: int, rho: Interval) -> Interval:
    """sin(rho + j pi/2): entry j mod 4 of the cycle (sin, cos, -sin, -cos)
    at rho, which is exactly (0, 1, 0, -1) at rho = 0."""
    v = _cos_core(rho) if j % 2 else _sin_core(rho)
    return -v if j % 4 >= 2 else v


def _trig_point(x: float, phase: int) -> Interval:
    """sin(x + phase pi/2) at a point: phase 0 gives sin x, phase 1 cos x."""
    if abs(x) > 1e12:
        return Interval(-1.0, 1.0)
    k = round(x / TWO_PI.mid)
    r = Interval(x) - TWO_PI * k
    j = int(round(r.mid / HALF_PI.mid))
    rho = r - HALF_PI * j
    if rho.mag > 0.8:  # pragma: no cover - defensive
        return Interval(-1.0, 1.0)
    return _cycle(j + phase, rho)


def _crosses(lo: float, hi: float, offset: float, slack: float) -> bool:
    """Conservatively: does offset + 2 pi n fall in [lo, hi] for some integer n?

    Over-reporting is sound (the range is merely widened to the true extremum).
    """
    tp = TWO_PI.mid
    n_lo = math.ceil((lo - offset) / tp - slack)
    n_hi = math.floor((hi - offset) / tp + slack)
    return n_lo <= n_hi


# per phase, the points where sin(x + phase pi/2) is 1 and where it is -1,
# modulo 2 pi
_PEAKS = ((HALF_PI.mid, -HALF_PI.mid), (0.0, PI.mid))


def _trig_range(x: Interval, phase: int) -> Interval:
    """Range of sin(t + phase pi/2) over t in x."""
    if x.hi - x.lo >= TWO_PI.lo:
        return Interval(-1.0, 1.0)
    a = _trig_point(x.lo, phase)
    b = _trig_point(x.hi, phase)
    lo = min(a.lo, b.lo)
    hi = max(a.hi, b.hi)
    slack = 1e-9 + abs(x.lo) * 1e-14 + abs(x.hi) * 1e-14
    top, bottom = _PEAKS[phase]
    if _crosses(x.lo, x.hi, top, slack):
        hi = 1.0
    if _crosses(x.lo, x.hi, bottom, slack):
        lo = -1.0
    return Interval(max(lo, -1.0), min(hi, 1.0))


def iv_sin(x: Interval) -> Interval:
    return _trig_range(x, 0)


def iv_cos(x: Interval) -> Interval:
    return _trig_range(x, 1)


# ----------------------------------------------------------------------
# powers
# ----------------------------------------------------------------------

def _int_pow(x: Interval, n: int) -> Interval:
    if n == 0:
        return Interval(1.0)
    if n < 0:
        return Interval(1.0) / _int_pow(x, -n)
    acc = x
    for _ in range(n - 1):
        acc = acc * x
    return acc


def iv_pow(x: Interval, e) -> Interval:
    """x^e for rational e; encloses {t^e : t in x}.

    Integer e is repeated interval multiplication.  Fractional e requires
    x >= 0; then t^e is monotone and evaluated endpoint-wise, through
    correctly rounded sqrt when the denominator is a power of two and
    exp(e log t) otherwise.
    """
    if isinstance(e, int):
        e = Fraction(e)
    elif isinstance(e, float):
        ef = Fraction(e).limit_denominator(10**12)
        if float(ef) != e:
            raise UnsupportedError(f"exponent {e} is not exactly rational")
        e = ef
    else:
        e = Fraction(e)

    if e.denominator == 1:
        return _int_pow(x, e.numerator)

    if x.lo < 0.0:
        raise IntervalDomainError(f"fractional power of {x} with negative part")

    d = e.denominator
    if d & (d - 1) == 0:  # power of two: chain of correctly rounded sqrt
        y = x
        while d > 1:
            y = iv_sqrt(y)
            d //= 2
        return _int_pow(y, e.numerator)

    if e > 0:
        lo = 0.0 if x.lo == 0.0 else _pow_point(x.lo, e).lo
        hi = 0.0 if x.hi == 0.0 else _pow_point(x.hi, e).hi
        return Interval(max(lo, 0.0), hi)
    # e < 0: decreasing
    if x.lo == 0.0:
        raise IntervalDomainError(f"negative power of {x} touching zero")
    return Interval(_pow_point(x.hi, e).lo, _pow_point(x.lo, e).hi)


def _pow_point(t: float, e: Fraction) -> Interval:
    ei = Interval.from_fraction(e)
    return iv_exp(ei * _log_point(t))


def gamma_half(k) -> Interval:
    """Gamma(k) for positive half-integers via the closed forms
    Gamma(n) = (n-1)! and Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!)."""
    k = Fraction(k)
    if k <= 0:
        raise UnsupportedError(f"gamma_half requires k > 0, got {k}")
    if k.denominator == 1:
        n = k.numerator
        if n > 170:
            raise UnsupportedError("gamma argument too large for binary64")
        return Interval.from_fraction(Fraction(math.factorial(n - 1)))
    if k.denominator == 2:
        n = (k - Fraction(1, 2)).numerator  # k = n + 1/2
        if n > 80:
            raise UnsupportedError("gamma argument too large for binary64")
        coef = Fraction(math.factorial(2 * n), 4**n * math.factorial(n))
        return Interval.from_fraction(coef) * SQRT_PI
    raise UnsupportedError(f"gamma at non-half-integer argument {k}")
