"""Type-II power series arithmetic (Taylor models) in one and two variables,
on batches of models.

A model of degree n over a domain D is a polynomial with interval
coefficients, read as the set of all continuous functions on D whose value
at every x lies in the pointwise interval of the polynomial.  Operations
preserve that set-containment:

* add/sub are coefficientwise;
* mul is the exact convolution to degree 2n followed by degree reduction,
  which resorbs every term of degree > n into the degree-n coefficient via
  a Horner range bound over the domain;
* composition with a smooth f Taylor-expands f around the midpoint u0 of
  the constant coefficient up to order m-1 and adds an order-m remainder
  whose coefficient is f^(m) over the hull of u0 and the model's range.

A PowerSeries holds a batch of B models of one degree: coefficients of shape
(B, n+1) in one variable or (B, n+1, n+1) in two, and one domain per item.
Every operation treats the items independently and rounds each of them
exactly as it would round that model alone, so a batch costs one pass of
numpy calls instead of B; the convolution of a product is one batched
two-stage kernel (ivarray.ConvOperand), whose right factor is prepared once
where it repeats, as z in the powers z^i of a composition.  Two-dimensional
models nest the one-dimensional construction: a 2-D model is a series in x
whose coefficients are series in y; the coefficient array operations below
are the unrolled form of that nesting.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import PositivityError, UsageError
from .interval import Interval, iv_log, iv_pow
from .ivarray import ConvOperand, IArr, iv_conv1d_full, iv_conv2d_batch

# the benchmark's tracer wraps psa.iv_conv2d_full, priced on 2-D operands,
# and psa.iv_sin and psa.iv_cos, which psa does not call
from .interval import iv_cos, iv_sin  # noqa: F401
from .ivarray import iv_conv2d_full  # noqa: F401

__all__ = [
    "PowerSeries",
    "PowerSeries1D",
    "PowerSeries2D",
    "ElemFn",
    "ps_compose",
]

_OUTWARD = (-math.inf, math.inf)


def _horner(lo: np.ndarray, hi: np.ndarray, xlo: np.ndarray, xhi: np.ndarray):
    """Horner over axis 1 of raw endpoint arrays of shape (B, m + 1, ...),
    item b at the interval [xlo[b], xhi[b]]; returns the (lo, hi) of the
    result, of shape (B, ...).

    Each step acc = acc * x + row rounds exactly as Interval * Interval
    followed by Interval + Interval: the four endpoint products, their
    min/max nudged outward, then the nudged sum."""
    tail = (1,) * (lo.ndim - 2)
    rows = np.stack((lo, hi))  # rows[:, :, i] = (lo, hi) of row i
    xs = np.stack((xlo, xhi)).reshape((1, 2, -1) + tail)  # acc[a] * x[b]
    outward = np.reshape(_OUTWARD, (2, 1) + tail)
    acc = rows[:, :, -1].copy()
    for i in range(rows.shape[2] - 2, -1, -1):
        prods = (acc[:, None] * xs).reshape((4,) + acc.shape[1:])
        np.minimum.reduce(prods, axis=0, out=acc[0])
        np.maximum.reduce(prods, axis=0, out=acc[1])
        np.nextafter(acc, outward, out=acc)
        acc += rows[:, :, i]
        np.nextafter(acc, outward, out=acc)
    return acc[0], acc[1]


def _per_item(c, batch: int) -> IArr:
    """An Interval, or an IArr of one interval per item, as an IArr (B,)."""
    return c if isinstance(c, IArr) else IArr.from_scalar(c, (batch,))


class PowerSeries:
    """A batch of Taylor models in one or two variables.

    coeffs is an IArr of shape (B, n+1) or (B, n+1, n+1), entry [b, i, j]
    multiplying x^i y^j in item b; domain holds one IArr (B,) per variable.
    A single model -- coefficients without the batch axis, a domain of
    Intervals (a bare Interval in one variable) -- is a batch of one."""

    __slots__ = ("coeffs", "domain")

    def __init__(self, coeffs: IArr, domain):
        if isinstance(domain, Interval):
            domain = (domain,)
        if coeffs.ndim == len(domain):
            coeffs = IArr(coeffs.lo[None], coeffs.hi[None])
        batch = coeffs.shape[0]
        self.coeffs = coeffs
        self.domain = tuple(_per_item(d, batch) for d in domain)

    @property
    def batch(self) -> int:
        return self.coeffs.shape[0]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    @classmethod
    def from_floats(cls, values, domain) -> "PowerSeries":
        return cls(IArr.exact(np.asarray(values, dtype=float)), domain)

    def __getitem__(self, idx) -> "PowerSeries":
        """Items idx (an index, a slice or an index array) as a batch."""
        if isinstance(idx, (int, np.integer)):
            idx = slice(idx, idx + 1)
        return PowerSeries(self.coeffs[idx], tuple(d[idx] for d in self.domain))

    def _like(self, coeffs: IArr) -> "PowerSeries":
        out = PowerSeries.__new__(PowerSeries)
        out.coeffs = coeffs
        out.domain = self.domain
        return out

    def _const_index(self):
        return (slice(None),) + (0,) * len(self.domain)

    def _check_compatible(self, other: "PowerSeries"):
        if self.degree != other.degree:
            raise UsageError(f"degree mismatch {self.degree} vs {other.degree}")
        if self.domain is not other.domain and not (
            len(self.domain) == len(other.domain)
            and all(
                np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)
                for a, b in zip(self.domain, other.domain)
            )
        ):
            raise UsageError(f"domain mismatch {self.domain} vs {other.domain}")

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        self._check_compatible(other)
        return self._like(self.coeffs + other.coeffs)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        self._check_compatible(other)
        return self._like(self.coeffs - other.coeffs)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        self._check_compatible(other)
        conv = iv_conv2d_batch if len(self.domain) == 2 else iv_conv1d_full
        return self._like(conv(self.coeffs, other.coeffs)).reduce(self.degree)

    def times(self, op: ConvOperand) -> "PowerSeries":
        """self * v for the 2-D batch v of this degree and domain whose
        coefficients op holds: the same kernel and bits, with v's side of
        the product prepared once for every product with v."""
        return self._like(op.conv(self.coeffs)).reduce(self.degree)

    def scale(self, c) -> "PowerSeries":
        """Item b times c, or times c[b] for an IArr c."""
        if isinstance(c, IArr):
            shape = (-1,) + (1,) * len(self.domain)
            c = IArr(c.lo.reshape(shape), c.hi.reshape(shape))
        return self._like(self.coeffs * c)

    def sub_const(self, c) -> "PowerSeries":
        """Subtract the exact float c, or c[b] from item b."""
        out = self.coeffs.copy()
        at = self._const_index()
        out[at] = out[at] + IArr.exact(-np.asarray(c, dtype=float))
        return self._like(out)

    def const_coeff(self) -> IArr:
        return self.coeffs[self._const_index()]

    def const_like(self, c) -> "PowerSeries":
        out = IArr.zeros(self.coeffs.shape[:1] + (self.degree + 1,) * len(self.domain))
        out[self._const_index()] = _per_item(c, self.batch)
        return self._like(out)

    def select(self, mask, other: "PowerSeries") -> "PowerSeries":
        """Item b of self where mask[b], else item b of other."""
        m = np.reshape(mask, (-1,) + (1,) * len(self.domain))
        c, o = self.coeffs, other.coeffs
        return self._like(IArr(np.where(m, c.lo, o.lo), np.where(m, c.hi, o.hi)))

    def reduce(self, n: int) -> "PowerSeries":
        """Nested degree reduction, x-direction then y-direction."""
        if n >= max(self.coeffs.shape[1:]) - 1:
            return self
        if n < 1:
            raise UsageError("target degree must be >= 1")
        lo, hi = self.coeffs.lo, self.coeffs.hi
        for ax, dom in enumerate(self.domain, start=1):
            if lo.shape[ax] - 1 > n:
                before = (slice(None),) * ax
                tail = _horner(
                    np.moveaxis(lo[before + (slice(n, None),)], ax, 1),
                    np.moveaxis(hi[before + (slice(n, None),)], ax, 1),
                    dom.lo,
                    dom.hi,
                )
                keep = before + (slice(None, n + 1),)
                lo, hi = lo[keep].copy(), hi[keep].copy()
                lo[before + (n,)], hi[before + (n,)] = tail
        return self._like(IArr(lo, hi))

    def _nested_horner(self, points) -> IArr:
        """Horner in y at points[1], then in x at points[0]: the range over
        the domain, or the value at a point."""
        lo, hi = self.coeffs.lo, self.coeffs.hi
        for ax in range(len(points), 0, -1):
            x = points[ax - 1]
            lo, hi = _horner(np.moveaxis(lo, ax, 1), np.moveaxis(hi, ax, 1), x.lo, x.hi)
        return IArr(lo, hi)

    def range(self) -> IArr:
        """Enclosure of each item's values over its domain, an IArr (B,)."""
        return self._nested_horner(self.domain)

    def eval_at(self, *point) -> IArr:
        """Each item at the point (Intervals, or IArrs with one per item),
        which must lie in the item's domain."""
        point = [_per_item(x, self.batch) for x in point]
        for x, d in zip(point, self.domain):
            if np.any((x.lo < d.lo) | (x.hi > d.hi)):
                raise UsageError(f"{x} outside the model domain {d}")
        return self._nested_horner(point)


# the package's names for models in one and in two variables
PowerSeries1D = PowerSeries2D = PowerSeries


# ----------------------------------------------------------------------
# elementary function composition
# ----------------------------------------------------------------------

class ElemFn:
    """A smooth f with verified derivative enclosures up to the model degree."""

    def __init__(self, tag: str, q: Fraction | None = None):
        if tag not in ("pow_q", "log"):
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
        # log
        if i == 0:
            return iv_log(t)
        sign = 1 if i % 2 == 1 else -1
        fac = Fraction(sign * math.factorial(i - 1))
        return Interval.from_fraction(fac) * iv_pow(t, -i)

    def deriv_table(self, t: IArr, orders) -> IArr:
        """deriv(i, t[b]) for every order i and item b, an IArr of shape
        (len(orders), B).  A t^q whose q has a power-of-two denominator is
        evaluated on arrays, with the bits of iv_pow; any other f, and any
        input on which iv_pow would raise, goes through deriv item by item."""
        if self.tag == "pow_q":
            d = self.q.denominator
            if d & (d - 1) == 0:
                out = self._dyadic_table(t, orders)
                if out is not None:
                    return out
        ts = [Interval(a, b) for a, b in zip(t.lo.tolist(), t.hi.tolist())]
        vals = [self.deriv(i, x) for i in orders for x in ts]
        return IArr(
            np.array([v.lo for v in vals]).reshape(-1, len(ts)),
            np.array([v.hi for v in vals]).reshape(-1, len(ts)),
        )

    def _dyadic_table(self, t: IArr, orders) -> IArr | None:
        """fac * t^(q - i) as iv_pow forms it for q = a / 2^k: k correctly
        rounded square roots, then a running product (_int_pow's
        left-to-right powers share their prefixes), then one reciprocal for
        a negative exponent.  None where iv_pow would raise: a negative
        base, a power containing zero, a non-finite endpoint."""
        y = t
        d = self.q.denominator
        if d > 1:
            if np.any(t.lo < 0.0):
                return None
            while d > 1:
                y = IArr(np.where(y.lo == 0.0, 0.0, np.nextafter(np.sqrt(y.lo), -math.inf)),
                         np.nextafter(np.sqrt(y.hi), math.inf))
                d //= 2
        one = IArr.exact(np.ones(t.shape))
        pows = [one, y]
        rows = []
        for i in orders:
            fac, e = self._pow_term(i)
            if fac is None:
                rows.append(IArr.zeros(t.shape))
                continue
            k = abs(e.numerator)
            while len(pows) <= k:
                pows.append(pows[-1] * y)
            p = pows[k]
            if e.numerator < 0:
                if np.any((p.lo <= 0.0) & (p.hi >= 0.0)):
                    return None
                p = one / p
            rows.append(p * fac)
        out = IArr.stack(rows)
        for a in pows + [out]:
            if not (np.isfinite(a.lo).all() and np.isfinite(a.hi).all()):
                return None
        return out


def ps_compose(f: ElemFn, u: PowerSeries, rng: IArr | None = None) -> PowerSeries:
    """f applied to every model of the batch u: Taylor polynomial of f at u0
    (midpoint of the constant coefficient) plus a Lagrange remainder with
    f^(m) enclosed over hull(u0, range(u)); rng is u.range() if the caller
    has formed it.

    The remainder order m <= degree is chosen per model to minimize the
    bound |f^(m)(hull)| rZ^m / m!.  When the Taylor ratio is contractive this
    picks the full degree (the textbook form); near the convergence boundary
    (for t^q this happens where the model's range stretches toward 0) a
    lower order is strictly sharper, and pushing the order higher would only
    grow the enclosure.

    The first model whose hull f does not accept raises; a model is never
    changed by the terms of another order: each term is added to the models
    that take it and kept from the others by selection, since adding a zero
    interval would still nudge every coefficient outward."""
    batch, n = u.batch, u.degree
    rng = u.range() if rng is None else rng
    c0 = u.const_coeff()
    u0 = np.empty(batch)
    hull = IArr.zeros(batch)
    for b in range(batch):
        rng_b = Interval(rng.lo[b], rng.hi[b])
        u0[b] = mid = Interval(c0.lo[b], c0.hi[b]).mid
        hull_b = Interval.hull_of(Interval(mid), rng_b)
        f.check_domain(hull_b)
        hull[b] = hull_b
    z = u.sub_const(u0)
    zr = z.range()
    rz = [Interval(a, b).mag for a, b in zip(zr.lo.tolist(), zr.hi.tolist())]
    over_hull = f.deriv_table(hull, range(1, n + 1))  # row m - 1: f^(m)
    at_u0 = f.deriv_table(IArr.exact(u0), range(n))  # row i: f^(i)

    # the remainder order of each model, in float arithmetic as a scalar
    # model chooses it (a power of a float is not np.power's)
    mags = over_hull.mag().tolist()
    orders = []
    for b in range(batch):
        m_best, best, inv_fact, r = 1, math.inf, 1.0, rz[b]
        for m in range(1, n + 1):
            inv_fact /= m
            est = mags[m - 1][b] * inv_fact * r**m
            if est <= best:
                m_best, best = m, est
        orders.append(m_best)
    orders = np.array(orders)

    # powers of z scaled term by term (not Horner): each z^i is formed by
    # Type-II multiplication first, then scaled once by its interval
    # coefficient, which keeps the worked-example tightness.  z^i carries
    # f^(i)(u0) / i! below a model's order and f^(i)(hull) / i! at it.  In
    # two variables every z^i = z^(i-1) z takes z prepared once.
    result = u.const_like(at_u0[0])
    zp = z
    z_op = ConvOperand(z.coeffs) if len(u.domain) == 2 else None
    for i in range(1, int(orders.max()) + 1):
        if i >= 2:
            zp = zp * z if z_op is None else zp.times(z_op)
        deriv = over_hull[i - 1]
        if i < n:
            below = i < orders
            deriv = IArr(np.where(below, at_u0.lo[i], deriv.lo), np.where(below, at_u0.hi[i], deriv.hi))
        coef = deriv * Interval.from_fraction(Fraction(1, math.factorial(i)))
        result = (result + zp.scale(coef)).select(i <= orders, result)
    return result
