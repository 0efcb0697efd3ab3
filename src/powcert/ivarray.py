"""Vectorized interval arrays: the workhorse behind Taylor-model arithmetic.

An IArr bundles two equal-shape float64 arrays (lo, hi).  Entrywise
operations nudge endpoints outward with np.nextafter, which dominates the
<= 1/2 ulp round-to-nearest error of each flop in all ranges.

Accumulating operations (matmul, correlation, convolution, sums) go through
a midpoint-radius representation with a Higham-style gamma_k * |A||B|
inflation of the dot-product rounding error plus a tiny absolute guard for
underflow.  Zero rows/columns stay exactly zero: when every contributing
magnitude is exactly 0.0 the float result is exact and no guard is added,
which the Taylor-model code relies on for factoring out vanishing-edge
monomials.
"""

from __future__ import annotations

import math

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

    def intervals(self):
        flat_lo = self.lo.ravel()
        flat_hi = self.hi.ravel()
        return [Interval(a, b) for a, b in zip(flat_lo, flat_hi)]

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

    def is_zero(self) -> bool:
        return bool(np.all(self.lo == 0.0) and np.all(self.hi == 0.0))

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
        p = np.stack(
            np.broadcast_arrays(
                self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi
            )
        )
        return IArr(_dn(p.min(axis=0)), _up(p.max(axis=0)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if np.any((o.lo <= 0.0) & (o.hi >= 0.0)):
            raise IntervalDomainError("array division by interval containing zero")
        q = np.stack(
            np.broadcast_arrays(
                self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi
            )
        )
        return IArr(_dn(q.min(axis=0)), _up(q.max(axis=0)))

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
        n = self.lo.size if axis is None else self.lo.shape[axis]
        if n == 0:
            return IArr.zeros(np.sum(self.lo, axis=axis).shape)
        g = _gamma(max(n - 1, 1))
        slo = np.sum(self.lo, axis=axis)
        shi = np.sum(self.hi, axis=axis)
        alo = np.sum(np.abs(self.lo), axis=axis)
        ahi = np.sum(np.abs(self.hi), axis=axis)
        # additions never suffer underflow error, so no absolute guard
        return IArr(_dn(slo - _up(g * alo)), _up(shi + _up(g * ahi)))

    def __matmul__(self, other) -> "IArr":
        return iv_matmul(self, self._coerce(other))

def iv_matmul(A: IArr, B: IArr) -> IArr:
    """Verified matrix product via midpoint-radius with error inflation.

    For C = A @ B with A in [Am +- Ar], B in [Bm +- Br]:
        C  in  fl(Am Bm) +- [ |Am| Br + Ar |Bm| + Ar Br
                              + gamma_k |Am||Bm| + underflow guard ]
    computed in RTN and inflated by _K_INFL; entries whose every
    contributing magnitude is exactly zero stay exactly zero.
    """
    Am, Ar = A.mid_rad()
    Bm, Br = B.mid_rad()
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
    # testing the inputs keeps this sound under underflow
    arow = np.max(absA + Ar, axis=-1)
    bcol = np.max(absB + Br, axis=0)
    zero = (arow[..., :, None] == 0.0) | (bcol[None, :] == 0.0)
    Cr = np.where(zero, 0.0, _up(raw + _ABS_GUARD))
    return IArr(np.where(zero, 0.0, _dn(Cm - Cr)), np.where(zero, 0.0, _up(Cm + Cr)))


def iv_corr2d(T: IArr, K: IArr) -> IArr:
    """Cross-correlation: out[a, b] = sum_ij K[i, j] T[a + i, b + j].

    Implemented as a windowed matrix-vector product through iv_matmul.
    """
    p, q = K.shape
    P, Q = T.shape
    A, B = P - p + 1, Q - q + 1
    wm = np.lib.stride_tricks.sliding_window_view(T.lo, (p, q)).reshape(A * B, p * q)
    wh = np.lib.stride_tricks.sliding_window_view(T.hi, (p, q)).reshape(A * B, p * q)
    W = IArr(wm, wh)
    kv = IArr(K.lo.reshape(p * q, 1), K.hi.reshape(p * q, 1))
    out = iv_matmul(W, kv)
    return IArr(out.lo.reshape(A, B), out.hi.reshape(A, B))


def iv_conv2d_full(U: IArr, V: IArr) -> IArr:
    """Full 2-D convolution: out[s, t] = sum_ij U[i, j] V[s - i, t - j]."""
    m, n = U.shape
    v, w = V.shape
    Tlo = np.zeros((v + 2 * (m - 1), w + 2 * (n - 1)))
    Thi = Tlo.copy()
    Tlo[m - 1 : m - 1 + v, n - 1 : n - 1 + w] = V.lo
    Thi[m - 1 : m - 1 + v, n - 1 : n - 1 + w] = V.hi
    Kf = IArr(U.lo[::-1, ::-1].copy(), U.hi[::-1, ::-1].copy())
    return iv_corr2d(IArr(Tlo, Thi), Kf)


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
