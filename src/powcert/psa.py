"""Type-II power series arithmetic (Taylor models) in one and two variables.

A model of degree n over a domain D is a polynomial with interval
coefficients, read as the set of all continuous functions on D whose value
at every x lies in the pointwise interval of the polynomial.  Operations
preserve that set-containment:

* add/sub are coefficientwise;
* mul is the exact convolution to degree 2n followed by degree reduction,
  which resorbs every term of degree > n into the degree-n coefficient via
  a Horner range bound over the domain;
* composition with a smooth f Taylor-expands f around the midpoint u0 of
  the constant coefficient up to order n-1 and adds an order-n remainder
  whose coefficient is f^(n) over the hull of u0 and the model's range.

Two-dimensional models nest the one-dimensional construction: a 2-D model
is a series in x whose coefficients are series in y; the flat coefficient
matrix operations below are the unrolled form of that nesting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PositivityError, UsageError
from .interval import Interval, iv_cos, iv_exp, iv_log, iv_pow, iv_sin
from .ivarray import IArr, iv_conv1d_full, iv_conv2d_full

__all__ = [
    "PowerSeries1D",
    "PowerSeries2D",
    "ElemFn",
    "ps_compose",
]


def _horner_scalar(coeffs: IArr, x: Interval) -> Interval:
    """Interval Horner evaluation of a coefficient vector over x."""
    n = len(coeffs) - 1
    acc = coeffs[n].item()
    for i in range(n - 1, -1, -1):
        acc = acc * x + coeffs[i].item()
    return acc


# nextafter targets that nudge row 0 (lower endpoints) down, row 1 up
_OUTWARD = np.array([[-math.inf], [math.inf]])


def _horner_rows(lo: np.ndarray, hi: np.ndarray, x: Interval):
    """Horner over the leading axis with vector coefficients (the nested form:
    series in x whose coefficients are coefficient-vectors in y), on raw
    endpoint arrays of shape (m + 1, k); returns the (lo, hi) of the result.

    Each step acc = acc * x + row rounds exactly as IArr * Interval followed
    by IArr + IArr: the four endpoint products in the same order, their
    min/max nudged outward, then the nudged sum."""
    rows = np.stack((lo, hi), axis=1)  # rows[i] = (lo[i], hi[i])
    xs = np.array([[[x.lo], [x.hi]]])  # broadcasts acc[a] * x[b] to (2, 2, k)
    acc = rows[-1].copy()
    for row in rows[-2::-1]:
        prods = (acc[:, None, :] * xs).reshape(4, -1)
        np.minimum.reduce(prods, axis=0, out=acc[0])
        np.maximum.reduce(prods, axis=0, out=acc[1])
        np.nextafter(acc, _OUTWARD, out=acc)
        acc += row
        np.nextafter(acc, _OUTWARD, out=acc)
    return acc[0], acc[1]


@dataclass(frozen=True)
class PowerSeries1D:
    coeffs: IArr  # shape (degree + 1,)
    domain: Interval

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_floats(cls, values, domain: Interval) -> "PowerSeries1D":
        return cls(IArr.exact(np.asarray(values, dtype=float)), domain)

    @classmethod
    def constant(cls, c: Interval, degree: int, domain: Interval) -> "PowerSeries1D":
        out = IArr.zeros(degree + 1)
        out[0] = c
        return cls(out, domain)

    def _check_compatible(self, other: "PowerSeries1D"):
        if self.degree != other.degree:
            raise UsageError(
                f"degree mismatch {self.degree} vs {other.degree}"
            )
        if self.domain != other.domain:
            raise UsageError(
                f"domain mismatch {self.domain} vs {other.domain}"
            )

    def __add__(self, other: "PowerSeries1D") -> "PowerSeries1D":
        self._check_compatible(other)
        return PowerSeries1D(self.coeffs + other.coeffs, self.domain)

    def __sub__(self, other: "PowerSeries1D") -> "PowerSeries1D":
        self._check_compatible(other)
        return PowerSeries1D(self.coeffs - other.coeffs, self.domain)

    def __mul__(self, other: "PowerSeries1D") -> "PowerSeries1D":
        self._check_compatible(other)
        full = iv_conv1d_full(self.coeffs, other.coeffs)
        return PowerSeries1D(full, self.domain).reduce(self.degree)

    def scale(self, c: Interval) -> "PowerSeries1D":
        return PowerSeries1D(self.coeffs * c, self.domain)

    def add_const(self, c: Interval) -> "PowerSeries1D":
        out = self.coeffs.copy()
        out[0] = out[0].item() + c
        return PowerSeries1D(out, self.domain)

    def sub_const(self, c: float) -> "PowerSeries1D":
        return self.add_const(Interval(-c))

    def const_coeff(self) -> Interval:
        return self.coeffs[0].item()

    def const_like(self, c: Interval) -> "PowerSeries1D":
        return PowerSeries1D.constant(c, self.degree, self.domain)

    def reduce(self, n: int) -> "PowerSeries1D":
        m = self.degree
        if n >= m:
            return self
        if n < 1:
            raise UsageError("target degree must be >= 1")
        out = IArr(self.coeffs.lo[: n + 1].copy(), self.coeffs.hi[: n + 1].copy())
        tail = self.coeffs[m].item()
        for i in range(m - 1, n - 1, -1):
            tail = tail * self.domain + self.coeffs[i].item()
        out[n] = tail
        return PowerSeries1D(out, self.domain)

    def range(self) -> Interval:
        return _horner_scalar(self.coeffs, self.domain)

    def eval_at(self, x: Interval) -> Interval:
        if not self.domain.contains(x):
            raise UsageError(f"{x} outside the model domain {self.domain}")
        return _horner_scalar(self.coeffs, x)


@dataclass(frozen=True)
class PowerSeries2D:
    coeffs: IArr  # shape (degree + 1, degree + 1), [i, j] multiplies x^i y^j
    domain: tuple  # (Interval in x, Interval in y)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @classmethod
    def constant(cls, c: Interval, degree: int, domain) -> "PowerSeries2D":
        out = IArr.zeros((degree + 1, degree + 1))
        out[0, 0] = c
        return cls(out, tuple(domain))

    def _check_compatible(self, other: "PowerSeries2D"):
        if self.degree != other.degree:
            raise UsageError(f"degree mismatch {self.degree} vs {other.degree}")
        if self.domain != other.domain:
            raise UsageError(f"domain mismatch {self.domain} vs {other.domain}")

    def __add__(self, other: "PowerSeries2D") -> "PowerSeries2D":
        self._check_compatible(other)
        return PowerSeries2D(self.coeffs + other.coeffs, self.domain)

    def __sub__(self, other: "PowerSeries2D") -> "PowerSeries2D":
        self._check_compatible(other)
        return PowerSeries2D(self.coeffs - other.coeffs, self.domain)

    def __mul__(self, other: "PowerSeries2D") -> "PowerSeries2D":
        self._check_compatible(other)
        full = iv_conv2d_full(self.coeffs, other.coeffs)
        return PowerSeries2D(full, self.domain).reduce(self.degree)

    def scale(self, c: Interval) -> "PowerSeries2D":
        return PowerSeries2D(self.coeffs * c, self.domain)

    def add_const(self, c: Interval) -> "PowerSeries2D":
        out = self.coeffs.copy()
        out[0, 0] = out[0, 0].item() + c
        return PowerSeries2D(out, self.domain)

    def sub_const(self, c: float) -> "PowerSeries2D":
        return self.add_const(Interval(-c))

    def const_coeff(self) -> Interval:
        return self.coeffs[0, 0].item()

    def const_like(self, c: Interval) -> "PowerSeries2D":
        return PowerSeries2D.constant(c, self.degree, self.domain)

    def reduce(self, n: int) -> "PowerSeries2D":
        """Nested degree reduction, x-direction then y-direction."""
        mx = self.coeffs.shape[0] - 1
        my = self.coeffs.shape[1] - 1
        m = max(mx, my)
        if n >= m:
            return self
        if n < 1:
            raise UsageError("target degree must be >= 1")
        dx, dy = self.domain
        lo, hi = self.coeffs.lo, self.coeffs.hi
        if mx > n:
            tail = _horner_rows(lo[n:], hi[n:], dx)
            lo, hi = lo[: n + 1].copy(), hi[: n + 1].copy()
            lo[n], hi[n] = tail
        if my > n:
            tail = _horner_rows(lo[:, n:].T, hi[:, n:].T, dy)
            lo, hi = lo[:, : n + 1].copy(), hi[:, : n + 1].copy()
            lo[:, n], hi[:, n] = tail
        return PowerSeries2D(IArr(lo, hi), self.domain)

    def range(self) -> Interval:
        dx, dy = self.domain
        # range over y of each x-coefficient series
        row_ranges = _horner_rows(self.coeffs.lo.T, self.coeffs.hi.T, dy)
        return _horner_scalar(IArr(*row_ranges), dx)

    def eval_at(self, x: Interval, y: Interval) -> Interval:
        rows = _horner_rows(self.coeffs.lo.T, self.coeffs.hi.T, y)
        return _horner_scalar(IArr(*rows), x)


# ----------------------------------------------------------------------
# elementary function composition
# ----------------------------------------------------------------------

class ElemFn:
    """A smooth f with verified derivative enclosures up to the model degree."""

    def __init__(self, tag: str, q: Fraction | None = None):
        if tag not in ("pow_q", "log", "sin", "exp"):
            raise UsageError(f"unsupported elementary function {tag!r}")
        if tag == "pow_q":
            if q is None:
                raise UsageError("pow_q requires an exponent")
            q = Fraction(q)
        self.tag = tag
        self.q = q
        # t^q derivative constants by order i, built on first use:
        # (q(q-1)...(q-i+1) as an Interval, None when it is 0; q - i)
        self._pow_terms = []

    @classmethod
    def pow_q(cls, q) -> "ElemFn":
        return cls("pow_q", Fraction(q))

    @classmethod
    def log(cls) -> "ElemFn":
        return cls("log")

    @classmethod
    def sin(cls) -> "ElemFn":
        return cls("sin")

    @classmethod
    def exp(cls) -> "ElemFn":
        return cls("exp")

    def check_domain(self, hull: Interval):
        if self.tag == "pow_q":
            q = self.q
            if q.denominator == 1 and q >= 0:
                return
            if hull.lo <= 0.0:
                raise PositivityError(
                    f"model range {hull} not strictly positive for t^{q}",
                    rng=hull,
                )
        elif self.tag == "log":
            if hull.lo <= 0.0:
                raise PositivityError(
                    f"model range {hull} not strictly positive for log", rng=hull
                )

    def _pow_term(self, i: int):
        terms = self._pow_terms
        while len(terms) <= i:
            j = len(terms)
            fac = Fraction(1)
            for k in range(j):
                fac *= self.q - k
            terms.append((Interval.from_fraction(fac) if fac else None, self.q - j))
        return terms[i]

    def deriv(self, i: int, t: Interval) -> Interval:
        """Enclosure of f^(i) over t."""
        if self.tag == "pow_q":
            fac, e = self._pow_term(i)
            if fac is None:
                return Interval(0.0)
            return fac * iv_pow(t, e)
        if self.tag == "log":
            if i == 0:
                return iv_log(t)
            sign = 1 if i % 2 == 1 else -1
            fac = Fraction(sign * math.factorial(i - 1))
            return Interval.from_fraction(fac) * iv_pow(t, -i)
        if self.tag == "exp":
            return iv_exp(t)
        # sin cycle
        j = i % 4
        if j == 0:
            return iv_sin(t)
        if j == 1:
            return iv_cos(t)
        if j == 2:
            return -iv_sin(t)
        return -iv_cos(t)


def ps_compose(f: ElemFn, u):
    """f applied to a model: Taylor polynomial of f at u0 (midpoint of the
    constant coefficient) plus a Lagrange remainder with f^(m) enclosed over
    hull(u0, range(u)).

    The remainder order m <= degree is chosen to minimize the bound
    |f^(m)(hull)| rZ^m / m!.  When the Taylor ratio is contractive this picks
    the full degree (the textbook form); near the convergence boundary (for
    t^q this happens where the model's range stretches toward 0) a lower
    order is strictly sharper, and pushing the order higher would only grow
    the enclosure."""
    rng = u.range()
    u0 = u.const_coeff().mid
    hull = Interval.hull_of(Interval(u0), rng)
    f.check_domain(hull)
    n = u.degree
    z = u.sub_const(u0)
    rz = z.range().mag
    u0iv = Interval(u0)

    # derivative enclosures over the hull, kept for the chosen remainder
    hull_derivs = [None]
    m_best, best = 1, math.inf
    inv_fact = 1.0
    for m in range(1, n + 1):
        inv_fact /= m
        hull_derivs.append(f.deriv(m, hull))
        est = hull_derivs[m].mag * inv_fact * rz**m
        if est <= best:
            m_best, best = m, est

    inv_fact = Fraction(1)
    taylor = [f.deriv(0, u0iv)]
    for i in range(1, m_best):
        inv_fact /= i
        taylor.append(f.deriv(i, u0iv) * Interval.from_fraction(inv_fact))
    c_rem = hull_derivs[m_best] * Interval.from_fraction(inv_fact / m_best)
    # powers of z scaled term by term (not Horner): each z^i is formed by
    # Type-II multiplication first, then scaled once by its interval
    # coefficient, which keeps the worked-example tightness
    result = u.const_like(taylor[0])
    zp = z
    if m_best >= 2:
        result = result + zp.scale(taylor[1])
        for i in range(2, m_best):
            zp = zp * z
            result = result + zp.scale(taylor[i])
        zp = zp * z
    return result + zp.scale(c_rem)
