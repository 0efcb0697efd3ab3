"""Vectorized interval arrays: the workhorse behind Taylor-model arithmetic.

An IArr bundles two equal-shape float64 arrays (lo, hi).  Entrywise
operations nudge endpoints outward with np.nextafter, which dominates the
<= 1/2 ulp round-to-nearest error of each flop in all ranges.

Accumulating operations (matmul, correlation, convolution, sums) go through
a midpoint-radius representation (Rump, "Fast and parallel interval
arithmetic", BIT 39, 1999) with a Higham-style gamma_k * |A||B| inflation of
the dot-product rounding error plus a tiny absolute guard for underflow.
Correlation and convolution take midpoint and radius of their operands
before windowing: both are elementwise, so they commute with it, and the
window matrices are gathered from the midpoint and radius arrays directly.
Zero rows/columns stay exactly zero: when every contributing magnitude is
exactly 0.0 the float result is exact and no guard is added, which the
Taylor-model code relies on for factoring out vanishing-edge monomials.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import IntervalDomainError
from .interval import Interval

_U = 2.0**-53          # unit roundoff, round-to-nearest binary64
_K_INFL = 1.0 + 2.0**-40   # swallows (1+u)^m accumulation factors
_ABS_GUARD = 2.0**-960     # >> n * (underflow absolute error) for any sane n

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
    if k > 4096:
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

    K may be a stack of kernels (..., p, q), correlated with the one T:
    the window matrix of T is gathered once, and each item has the bits of
    its correlation alone."""
    return _mr_corr2d(*T.mid_rad(), *K.mid_rad())


def _mr_corr2d(Tm, Tr, Km, Kr) -> IArr:
    """Cross-correlation of T in [Tm +- Tr] with K in [Km +- Kr] as a
    windowed matrix-vector product, the window rows gathered from Tm and Tr."""
    p, q = Km.shape[-2:]
    P, Q = Tm.shape
    idx = _window_index(P, Q, p, q)
    stack = Km.shape[:-2]
    out = _mr_matmul(
        Tm.ravel()[idx], Tr.ravel()[idx], Km.reshape(stack + (p * q, 1)), Kr.reshape(stack + (p * q, 1))
    )
    shape = stack + (P - p + 1, Q - q + 1)
    return IArr(out.lo.reshape(shape), out.hi.reshape(shape))


def iv_conv2d_full(U: IArr, V: IArr) -> IArr:
    """Full 2-D convolution: out[s, t] = sum_ij U[i, j] V[s - i, t - j].

    The correlation of zero-padded V with flipped U; the padding is exact
    zero in midpoint and radius alike, so it is added after mid_rad."""
    m, n = U.shape
    v, w = V.shape
    Vm, Vr = V.mid_rad()
    Tm = np.zeros((v + 2 * (m - 1), w + 2 * (n - 1)))
    Tr = np.zeros_like(Tm)
    Tm[m - 1 : m - 1 + v, n - 1 : n - 1 + w] = Vm
    Tr[m - 1 : m - 1 + v, n - 1 : n - 1 + w] = Vr
    Um, Ur = U.mid_rad()
    # copies: a reversed view reshapes to a negatively strided vector, which
    # numpy multiplies outside BLAS, in another summation order
    return _mr_corr2d(Tm, Tr, Um[::-1, ::-1].copy(), Ur[::-1, ::-1].copy())


def iv_conv1d_full(u: IArr, v: IArr) -> IArr:
    """Full 1-D convolution by shift-accumulate; at most min(len) nudged adds
    per coefficient, which keeps the worked golden examples within ulps."""
    nu, nv = len(u.lo), len(v.lo)
    out = IArr.zeros(nu + nv - 1)
    for i in range(nu):
        prod = v * Interval(float(u.lo[i]), float(u.hi[i]))
        if i == 0:
            out.lo[:nv] = prod.lo
            out.hi[:nv] = prod.hi
        else:
            seg = out[i : i + nv] + prod
            out.lo[i : i + nv] = seg.lo
            out.hi[i : i + nv] = seg.hi
    return out


def iv_outer(a: IArr, b: IArr) -> IArr:
    """Outer product of two interval vectors (tensor coefficients)."""
    av = IArr(a.lo.reshape(-1, 1), a.hi.reshape(-1, 1))
    bv = IArr(b.lo.reshape(1, -1), b.hi.reshape(1, -1))
    return av * bv
