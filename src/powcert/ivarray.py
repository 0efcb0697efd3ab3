"""Vectorized interval arrays: the workhorse behind Taylor-model arithmetic.

An IArr bundles two equal-shape float64 arrays (lo, hi).  Entrywise
operations nudge endpoints outward with np.nextafter, which dominates the
<= 1/2 ulp round-to-nearest error of each flop in all ranges.

Accumulating operations (matmul, correlation, convolution, sums) go through
a midpoint-radius representation (Rump, "Fast and parallel interval
arithmetic", BIT 39, 1999) with a Higham-style gamma_k * |A||B| inflation of
the dot-product rounding error plus a tiny absolute guard for underflow.
Correlation takes midpoint and radius of its operands before windowing
(both commute with it); the convolution of model products runs on stacks of
models in two stages, each bounded by its own (1 + gamma_m) factor.  Zero
rows/columns stay exactly zero: when every contributing product has a
factor exactly 0.0 the float result is exact and no guard is added, which
the Taylor-model code relies on for factoring out vanishing-edge monomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import IntervalDomainError
from .interval import Interval

_U = 2.0**-53          # unit roundoff, round-to-nearest binary64
_K_INFL = 1.0 + 2.0**-40   # swallows (1+u)^m accumulation factors
_ABS_GUARD = 2.0**-960     # >> n * (underflow absolute error) for any sane n
_MAX_INNER = 4096          # inner dimensions the guard and _K_INFL are sized for
_CHUNK = 16                # models per pass of iv_conv2d_batch; more buy memory, not time

_NEG_INF = -math.inf
_POS_INF = math.inf


def _gamma(k: int) -> float:
    g = k * _U / (1.0 - k * _U)
    return g * _K_INFL


def _dn(a: np.ndarray) -> np.ndarray:
    return np.nextafter(a, _NEG_INF)


def _up(a: np.ndarray) -> np.ndarray:
    return np.nextafter(a, _POS_INF)


def _hull4(a, b, c, d) -> "IArr":
    """Outward-nudged hull of four broadcast endpoint products.  Every
    endpoint is nudged and nextafter(+-0.0) does not depend on the sign of
    zero, so which zero the min/max picks never shows."""
    lo = np.minimum(np.minimum(a, b), np.minimum(c, d))
    hi = np.maximum(np.maximum(a, b), np.maximum(c, d))
    return IArr(_dn(lo), _up(hi))


class IArr:
    """Array of closed intervals, stored as (lo, hi) float64 ndarrays."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, shape) -> "IArr":
        return cls(np.zeros(shape), np.zeros(shape))

    @classmethod
    def exact(cls, a) -> "IArr":
        """Wrap float data taken to be exact (degenerate intervals)."""
        a = np.asarray(a, dtype=np.float64)
        return cls(a, a.copy())

    @classmethod
    def from_scalar(cls, s: Interval, shape=()) -> "IArr":
        return cls(np.full(shape, s.lo), np.full(shape, s.hi))

    @classmethod
    def from_intervals(cls, seq) -> "IArr":
        lo = np.array([s.lo for s in seq])
        hi = np.array([s.hi for s in seq])
        return cls(lo, hi)

    @classmethod
    def stack(cls, seq) -> "IArr":
        """The IArrs of seq, all of one shape, stacked along a new first axis."""
        return cls(np.stack([a.lo for a in seq]), np.stack([a.hi for a in seq]))

    def copy(self) -> "IArr":
        return IArr(self.lo.copy(), self.hi.copy())

    @property
    def shape(self):
        return self.lo.shape

    @property
    def ndim(self):
        return self.lo.ndim

    def __len__(self):
        return len(self.lo)

    def __getitem__(self, idx) -> "IArr":
        return IArr(self.lo[idx], self.hi[idx])

    def __setitem__(self, idx, value):
        if isinstance(value, Interval):
            self.lo[idx] = value.lo
            self.hi[idx] = value.hi
        else:
            self.lo[idx] = value.lo
            self.hi[idx] = value.hi

    def item(self) -> Interval:
        return Interval(float(self.lo), float(self.hi))

    def __repr__(self):
        return f"IArr(lo={self.lo!r}, hi={self.hi!r})"

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def rad_of(self, m: np.ndarray) -> np.ndarray:
        """Radius around a given center m so that [m - r, m + r] covers self."""
        raw = np.maximum(self.hi - m, m - self.lo)
        # fl(x - y) == 0 iff x == y exactly, so a zero raw radius is exact
        return np.where(raw == 0.0, 0.0, _up(raw))

    def mid_rad(self):
        m = self.mid()
        return m, self.rad_of(m)

    def mag(self) -> np.ndarray:
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    def width(self) -> np.ndarray:
        return _up(self.hi - self.lo)

    def max_width(self) -> float:
        return float(np.max(self.width())) if self.lo.size else 0.0

    def contains(self, pts) -> np.ndarray:
        pts = np.asarray(pts)
        return (self.lo <= pts) & (pts <= self.hi)

    # ------------------------------------------------------------------
    # entrywise arithmetic
    # ------------------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, IArr):
            return x
        if isinstance(x, Interval):
            return IArr(np.float64(x.lo), np.float64(x.hi))
        x = np.asarray(x, dtype=np.float64)
        return IArr(x, x)

    def __add__(self, other):
        o = self._coerce(other)
        return IArr(_dn(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return IArr(_dn(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return IArr(-self.hi, -self.lo)

    def __mul__(self, other):
        o = self._coerce(other)
        return _hull4(self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if np.any((o.lo <= 0.0) & (o.hi >= 0.0)):
            raise IntervalDomainError("array division by interval containing zero")
        return _hull4(self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)

    def sqr(self) -> "IArr":
        a = np.abs(self.lo)
        b = np.abs(self.hi)
        small = np.minimum(a, b)
        big = np.maximum(a, b)
        lo = np.where((self.lo <= 0.0) & (self.hi >= 0.0), 0.0, _dn(small * small))
        return IArr(lo, _up(big * big))

    # ------------------------------------------------------------------
    # verified accumulating operations
    # ------------------------------------------------------------------

    def sum(self, axis=None) -> "IArr":
        """Sum over all entries, one axis or a tuple of axes.  A tuple of
        axes is moved to the end and flattened, so that each item is summed
        as one row, in the order .sum() sums a C-contiguous item alone."""
        lo, hi = self.lo, self.hi
        if isinstance(axis, tuple):
            last = range(-len(axis), 0)
            lo, hi = np.moveaxis(lo, axis, last), np.moveaxis(hi, axis, last)
            keep = lo.shape[: lo.ndim - len(axis)]
            lo, hi = lo.reshape(keep + (-1,)), hi.reshape(keep + (-1,))
            axis = -1
        n = lo.size if axis is None else lo.shape[axis]
        if n == 0:
            return IArr.zeros(np.sum(lo, axis=axis).shape)
        g = _gamma(max(n - 1, 1))
        slo = np.sum(lo, axis=axis)
        shi = np.sum(hi, axis=axis)
        alo = np.sum(np.abs(lo), axis=axis)
        ahi = np.sum(np.abs(hi), axis=axis)
        # additions never suffer underflow error, so no absolute guard
        return IArr(_dn(slo - _up(g * alo)), _up(shi + _up(g * ahi)))


def iv_matmul(A: IArr, B: IArr) -> IArr:
    """Verified matrix product via midpoint-radius with error inflation.

    A and B may be stacks of matrices, broadcast as numpy's matmul
    broadcasts them; each item has the bits of the product of that item
    alone when the stack is contiguous or one operand is a 2-D matrix."""
    return _mr_matmul(*A.mid_rad(), *B.mid_rad())


def _mr_matmul(Am, Ar, Bm, Br) -> IArr:
    """Product of A in [Am +- Ar] and B in [Bm +- Br]:
        C  in  fl(Am Bm) +- [ |Am| Br + Ar |Bm| + Ar Br
                              + gamma_k |Am||Bm| + underflow guard ]
    computed in RTN and inflated by _K_INFL; entries whose every
    contributing magnitude is exactly zero stay exactly zero.
    """
    k = Am.shape[-1] if Am.ndim else 1
    if k > _MAX_INNER:
        raise IntervalDomainError("inner dimension too large for the stock inflation factor")
    Cm = Am @ Bm
    absA = np.abs(Am)
    absB = np.abs(Bm)
    P = absA @ absB
    R = absA @ Br + Ar @ absB + Ar @ Br
    raw = (R + _gamma(k + 4) * P) * _K_INFL
    # an output entry is exactly zero iff its row of A or column of B is
    # identically zero (then every contributing product is exactly 0.0);
    # testing the inputs keeps this sound under underflow.  Rows and
    # columns are tested per matrix of a stack.
    arow = np.max(absA + Ar, axis=-1)
    bcol = np.max(absB + Br, axis=-2)
    zero = (arow[..., :, None] == 0.0) | (bcol[..., None, :] == 0.0)
    Cr = np.where(zero, 0.0, _up(raw + _ABS_GUARD))
    return IArr(np.where(zero, 0.0, _dn(Cm - Cr)), np.where(zero, 0.0, _up(Cm + Cr)))


@lru_cache(maxsize=64)
def _window_index(P: int, Q: int, p: int, q: int) -> np.ndarray:
    """Flat indices into a C-ordered (P, Q) array of its (P-p+1)(Q-q+1)
    windows of shape (p, q), one window per row, row-major in both.  A
    Taylor-model degree uses two or three shapes; the arrays are shared
    between callers, hence read-only."""
    starts = (np.arange(P - p + 1)[:, None] * Q + np.arange(Q - q + 1)).reshape(-1, 1)
    taps = (np.arange(p)[:, None] * Q + np.arange(q)).reshape(1, -1)
    idx = starts + taps
    idx.flags.writeable = False
    return idx


def iv_corr2d(T: IArr, K: IArr) -> IArr:
    """Cross-correlation: out[a, b] = sum_ij K[i, j] T[a + i, b + j].

    K may be a stack of kernels (..., p, q), correlated with the one T: a
    windowed matrix-vector product, the window matrix gathered once from
    T's midpoints and radii, and each item has the bits of its correlation
    alone."""
    (Tm, Tr), (Km, Kr) = T.mid_rad(), K.mid_rad()
    p, q = Km.shape[-2:]
    P, Q = Tm.shape
    idx = _window_index(P, Q, p, q)
    stack = Km.shape[:-2]
    out = _mr_matmul(
        Tm.ravel()[idx], Tr.ravel()[idx], Km.reshape(stack + (p * q, 1)), Kr.reshape(stack + (p * q, 1))
    )
    shape = stack + (P - p + 1, Q - q + 1)
    return IArr(out.lo.reshape(shape), out.hi.reshape(shape))


@lru_cache(maxsize=64)
def _conv_factors(b: int, terms: int) -> tuple[float, float]:
    """Floats above G = g(b) + g(L - 1) (1 + g(b)) and
    H = 1 / ((1 - g(2b + 1)) (1 - g(L - 1)) (1 - u)^4), g(k) = k u / (1 - k u)
    (Higham, Accuracy and Stability of Numerical Algorithms, section 3.1),
    for rows of b entries and L = terms row products per output entry."""
    u = Fraction(1, 2**53)
    g1, g2, g3 = (k * u / (1 - k * u) for k in (b, terms - 1, 2 * b + 1))
    exact = (g1 + g2 * (1 + g1), 1 / ((1 - g3) * (1 - g2) * (1 - u) ** 4))
    return tuple(math.nextafter(float(x), math.inf) for x in exact)


def iv_conv2d_batch(U: IArr, V: IArr) -> IArr:
    """Full 2-D convolution of each item of the stack U (B, a, b) with the
    same item of V (B, c, d): out[k, s, t] = sum_ij U[k, i, j] V[k, s - i, t - j].

    Per chunk of _CHUNK items, U's rows times the Toeplitz blocks of V's
    rows (one stacked matmul, inner dimension b), then the sum of the a
    shifted slices of those row products.  Both stages carry four sums: M of
    Um Vm, P of |Um| |Vm|, Q of Ur |Vm| + (|Um| + Ur) Vr, and Z of |Vm| + Vr
    over the nonzero entries of U.  The result lies in
    M +- [(G P + Q) H + guard] (_conv_factors); an entry with Z = 0, every
    product with a factor exactly zero in midpoint and radius, is exactly 0.
    Each item has the bits of the item alone."""
    batch, a, b = U.shape
    c, d = V.shape[1:]
    if b > _MAX_INNER:
        raise IntervalDomainError("inner dimension too large for the stock inflation factor")
    G, H = _conv_factors(b, min(a, c))
    w, n, v = b + d - 1, min(_CHUNK, batch), slice(b - 1, b - 1 + d)
    lo, hi = np.empty((2, batch, a + c - 1, w))
    # a chunk's work arrays, reused, zero blocks never written: V's rows
    # (Vm, |Vm|, Vr) padded by b - 1 zeros, their Toeplitz blocks
    # T[f, j, r, t] = X[r, f, t + j], U's rows reversed as block rows M, P, Q, Z
    X, R = np.zeros((n, c, 3, d + 2 * b - 2)), np.zeros((n, 4, a, 3, b))
    T, rows, S = np.empty((n, 3, b, c, w)), np.empty((n, 4 * a, c * w)), np.empty((n, 4, a + c - 1, w))
    for at in range(0, batch, _CHUNK):
        k, m = slice(at, at + _CHUNK), min(_CHUNK, batch - at)
        (Um, Ur), (Vm, Vr) = U[k].mid_rad(), V[k].mid_rad()
        Um, Ur = Um[..., ::-1], Ur[..., ::-1]
        X[:m, :, 0, v], X[:m, :, 1, v], X[:m, :, 2, v] = Vm, np.abs(Vm), Vr
        np.copyto(T[:m], sliding_window_view(X[:m], w, axis=3).transpose(0, 2, 3, 1, 4))
        R[:m, 0, :, 0], R[:m, 1, :, 1], R[:m, 2, :, 1] = Um, np.abs(Um), Ur
        np.add(R[:m, 1, :, 1], Ur, out=R[:m, 2, :, 2])
        R[:m, 3, :, 1] = R[:m, 3, :, 2] = R[:m, 2, :, 2] != 0.0
        np.matmul(R[:m].reshape(m, 4 * a, 3 * b), T[:m].reshape(m, 3 * b, c * w), out=rows[:m])
        prods, sums = rows[:m].reshape(m, 4, a, c, w), S[:m]
        sums[:] = 0.0
        for i in range(a):
            sums[:, :, i : i + c] += prods[:, :, i]
        mid, rad, zero = sums[:, 0], sums[:, 1], sums[:, 3] == 0.0
        rad *= G
        rad += sums[:, 2]
        rad *= H
        rad += _ABS_GUARD
        for out, op, way in ((lo[k], np.subtract, _NEG_INF), (hi[k], np.add, _POS_INF)):
            np.nextafter(op(mid, rad, out=out), way, out=out)
            np.copyto(out, 0.0, where=zero)
    return IArr(lo, hi)


def iv_conv2d_full(U: IArr, V: IArr) -> IArr:
    """Full 2-D convolution of two coefficient matrices: iv_conv2d_batch on
    a batch of one."""
    return iv_conv2d_batch(U[None], V[None])[0]


def iv_conv1d_full(u: IArr, v: IArr) -> IArr:
    """Full 1-D convolution along the last axis, of each item of u with the
    same item of v, by shift-accumulate; at most min(len) nudged adds per
    coefficient, which keeps the worked golden examples within ulps."""
    nu, nv = u.shape[-1], v.shape[-1]
    out = IArr.zeros(u.shape[:-1] + (nu + nv - 1,))
    out[..., :nv] = v * u[..., :1]
    for i in range(1, nu):
        out[..., i : i + nv] = out[..., i : i + nv] + v * u[..., i : i + 1]
    return out


def iv_outer(a: IArr, b: IArr) -> IArr:
    """Outer product of two interval vectors (tensor coefficients)."""
    av = IArr(a.lo.reshape(-1, 1), a.hi.reshape(-1, 1))
    bv = IArr(b.lo.reshape(1, -1), b.hi.reshape(1, -1))
    return av * bv
