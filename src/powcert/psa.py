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
  whose coefficient is f^(m) over the hull of u0 and the model's range;
* t^q of a 2-D model, for the quadrature sweep, is a float root plus its
  verified defect divided by an interval (ps_root): one product at q = 1/2.

A PowerSeries holds a batch of B models of one degree: coefficients of shape
(B, n+1) in one variable or (B, n+1, n+1) in two, and one domain per item.
Every operation treats the items independently and rounds each of them
exactly as it would round that model alone, so a batch costs one pass of
numpy calls instead of B; the convolution of a product is one batched
two-stage kernel (ivarray.ConvOperand), whose right factor is prepared once
where it repeats (PowerSeries.times).  Two-dimensional models nest the
one-dimensional construction: a 2-D model is a series in x whose
coefficients are series in y; the coefficient array operations below are
the unrolled form of that nesting.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import IntervalDomainError, PositivityError, UsageError
from .interval import Interval, iv_log, iv_pow
from .ivarray import ConvOperand, IArr, iv_conv1d_full, iv_conv2d_batch, step_down, step_up

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
    "ps_root",
]

def _horner(lo: np.ndarray, hi: np.ndarray, xlo: np.ndarray, xhi: np.ndarray):
    """Horner over axis 1 of raw endpoint arrays of shape (B, m + 1, ...),
    item b at the interval [xlo[b], xhi[b]]; returns the (lo, hi) of the
    result, of shape (B, ...).

    Each step acc = acc * x + row rounds exactly as Interval * Interval
    followed by Interval + Interval: the four endpoint products, their
    min/max nudged outward, then the nudged sum.  acc holds the lower end
    negated, so that one step_up nudges both ends outward: negation is
    exact, fl(-a - b) = -fl(a + b), step_down(a) = -step_up(-a) (the bits
    of np.nextafter), and the negated end meets -x, (-a)(-x) = ax."""
    tail = (1,) * (lo.ndim - 2)
    rows = np.stack((-lo, hi))  # rows[:, :, i] = (-lo, hi) of row i
    x = np.stack((xlo, xhi)).reshape((1, 2, -1) + tail)
    xs = np.concatenate((-x, x))  # acc[a] * xs[a, b]: the endpoint products
    acc = rows[:, :, -1].copy()
    neg = acc[0]
    for i in range(rows.shape[2] - 2, -1, -1):
        prods = (acc[:, None] * xs).reshape((4,) + acc.shape[1:])
        np.minimum.reduce(prods, axis=0, out=neg)
        np.negative(neg, out=neg)
        np.maximum.reduce(prods, axis=0, out=acc[1])
        step_up(acc, out=acc)
        acc += rows[:, :, i]
        step_up(acc, out=acc)
    return -neg, acc[1]


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
        (len(orders), B)."""
        ts = [Interval(a, b) for a, b in zip(t.lo.tolist(), t.hi.tolist())]
        vals = [self.deriv(i, x) for i in orders for x in ts]
        return IArr(
            np.array([v.lo for v in vals]).reshape(-1, len(ts)),
            np.array([v.hi for v in vals]).reshape(-1, len(ts)),
        )


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
    # f^(i)(u0) / i! below a model's order and f^(i)(hull) / i! at it
    result = u.const_like(at_u0[0])
    zp = z
    for i in range(1, int(orders.max()) + 1):
        if i >= 2:
            zp = zp * z
        deriv = over_hull[i - 1]
        if i < n:
            below = i < orders
            deriv = IArr(np.where(below, at_u0.lo[i], deriv.lo), np.where(below, at_u0.hi[i], deriv.hi))
        coef = deriv * Interval.from_fraction(Fraction(1, math.factorial(i)))
        result = (result + zp.scale(coef)).select(i <= orders, result)
    return result


# ----------------------------------------------------------------------
# t^q verified a posteriori
# ----------------------------------------------------------------------

def _toeplitz(a: np.ndarray) -> np.ndarray:
    """The Toeplitz matrices T[..., s, t] = a[..., s - t] (0 for s < t) of the
    series a (..., m): T times a series is their product cut at degree m - 1."""
    m = a.shape[-1]
    pad = np.concatenate([np.zeros(a.shape[:-1] + (m - 1,)), a], axis=-1)
    return np.ascontiguousarray(sliding_window_view(pad, m, axis=-1)[..., ::-1])


def _miller(a: np.ndarray, e: float) -> np.ndarray:
    """Float Taylor coefficients of a^e for the series a (B, m), a[:, 0] > 0:
    j a_0 p_j = sum_(k=1..j) ((e + 1) k - j) a_k p_(j-k) (Miller)."""
    p = np.zeros_like(a)
    p[:, 0] = a[:, 0] ** e
    for j in range(1, a.shape[1]):
        k = np.arange(1, j + 1)
        p[:, j] = (a[:, 1 : j + 1] * p[:, j - 1 :: -1] * ((e + 1) * k - j)).sum(axis=1) / (j * a[:, 0])
    return p


def _float_root(c: np.ndarray, q: float) -> np.ndarray:
    """Float Taylor coefficients of c^q for the 2-D series c (B, m, m) by the
    2-D Miller recurrence c E(P) = q P E(c), E = x d/dx + y d/dy, row by row
    in x: i c_0 P_i = sum_(k=1..i) ((q + 1) k - i) c_k P_(i-k) over series in
    y cut at degree m - 1 (_toeplitz), c_0^q and 1 / c_0 by _miller.  Each
    item has the bits of the item alone."""
    batch, m, _ = c.shape
    p = np.empty_like(c)
    p[:, 0] = _miller(c[:, 0], q)
    inv = _toeplitz(_miller(c[:, 0], -1.0))
    # rows[b, s, k - 1, t] = c_k[s - t]: the first i rows against P's rows
    # reversed are one matrix-vector product
    rows = np.ascontiguousarray(_toeplitz(c[:, 1:]).transpose(0, 2, 1, 3))
    for i in range(1, m):
        k = np.arange(1, i + 1)
        prev = p[:, i - 1 :: -1] * (((q + 1) * k - i) / i)[:, None]
        p[:, i] = (inv @ (rows[:, :, :i].reshape(batch, m, i * m) @ prev.reshape(batch, i * m, 1)))[..., 0]
    return p


def _power(x, k: int):
    """x^k, k >= 1, by squaring: entrywise for an IArr, Type-II products for
    a PowerSeries."""
    if k == 1:
        return x
    half = _power(x * x, k // 2)
    return half * x if k % 2 else half


def _pow_ranges(x: IArr, q: Fraction) -> IArr:
    """x^q for x > 0: correctly rounded square roots, then a power, when q's
    denominator is a power of two; else iv_pow item by item."""
    a, b = q.numerator, q.denominator
    if b & (b - 1):
        return IArr.from_intervals([iv_pow(Interval(lo, hi), q) for lo, hi in zip(x.lo.tolist(), x.hi.tolist())])
    for _ in range(b.bit_length() - 1):
        lo, hi = np.sqrt(x.lo), np.sqrt(x.hi)
        x = IArr(step_down(lo, out=lo), step_up(hi, out=hi))
    return _power(x, a)


def _concat(a: IArr, b: IArr) -> IArr:
    """The items of a, then those of b, along the first axis."""
    return IArr(np.concatenate((a.lo, b.lo)), np.concatenate((a.hi, b.hi)))


def ps_root(u: PowerSeries, q) -> tuple:
    """u^q, q = a/b in (0, 1], of every model of the 2-D batch u, per model
    None or the error it raises, and u.range(), an IArr (B,).  The error is
    the first of, in this order: IntervalDomainError where u's range is not
    finite, PositivityError where it is not > 0, IntervalDomainError where
    the root is not finite, PositivityError where the range of P is not > 0.
    Each item has the bits of the item alone.

    Verified a posteriori (Rump, Acta Numerica 19, 2010): P, the float
    Taylor coefficients of u^q at u's midpoints (_float_root), needs no
    rigor; the defect D = u^a - P^b comes from Type-II products by squaring
    with P exact, and the result is P + s D with the interval
    s = 1 / sum_(k<b) rng^(qk) range(P)^(b-1-k).  Pointwise,
    u^q - P = D / sum_(k<b) (u^q)^k P^(b-1-k), a denominator in 1 / s > 0.
    P is formed first, so that the ranges of u and of P come from one
    Horner pass over the 2B models, each with the bits of its range alone;
    every endpoint is stepped outward by step_up and step_down, which have
    np.nextafter's bits."""
    q = Fraction(q)
    batch = u.batch
    with np.errstate(all="ignore"):  # a non-finite value fails its model only
        p = u._like(IArr.exact(_float_root(u.coeffs.mid(), float(q))))
        both = PowerSeries(_concat(u.coeffs, p.coeffs), tuple(_concat(d, d) for d in u.domain)).range()
        rng, pr = both[:batch], both[batch:]
        d = _power(u, q.numerator) - _power(p, q.denominator)
        pos = (rng.lo > 0.0) & (pr.lo > 0.0)
        # a failing model takes ranges of 1, so that its s is finite
        y, pr1 = (IArr(np.where(pos, r.lo, 1.0), np.where(pos, r.hi, 1.0)) for r in (rng, pr))
        y = _pow_ranges(y, q)
        den = yk = one = IArr.exact(np.ones(batch))
        for _ in range(q.denominator - 1):  # sum_(k<j) y^k pr^(j-1-k), j = 1, 2, ...
            yk = yk * y
            den = yk + pr1 * den
        w = p + d.scale(one / den)
    finite = np.isfinite(w.coeffs.lo).all(axis=(1, 2)) & np.isfinite(w.coeffs.hi).all(axis=(1, 2))
    finite &= np.isfinite(pr.lo) & np.isfinite(pr.hi)
    rng_finite = np.isfinite(rng.lo) & np.isfinite(rng.hi)
    errors = [None] * batch
    for b in np.flatnonzero(~(rng_finite & pos & finite)).tolist():
        if not rng_finite[b]:
            errors[b] = IntervalDomainError(f"non-finite model range [{rng.lo[b]}, {rng.hi[b]}] for t^{q}")
        elif rng.lo[b] > 0.0 and not finite[b]:
            errors[b] = IntervalDomainError(f"non-finite t^{q} root")
        else:
            r, name = (pr, "float root") if rng.lo[b] > 0.0 else (rng, "model")
            bad = Interval(r.lo[b], r.hi[b])
            errors[b] = PositivityError(f"{name} range {bad} not strictly positive for t^{q}", rng=bad)
    return w, errors, rng
