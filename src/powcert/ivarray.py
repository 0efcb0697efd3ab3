"""Vectorized interval arrays: the workhorse behind Taylor-model arithmetic.

An IArr bundles two equal-shape float64 arrays (lo, hi).  Entrywise
operations nudge endpoints outward with np.nextafter, which dominates the
<= 1/2 ulp round-to-nearest error of each flop in all ranges.

Every product -- the matrix product, the correlation built on it and both
stages of the batched convolution of model products (ConvOperand) -- runs in
midpoint-radius form (Rump, "Fast and parallel interval arithmetic", BIT
39, 1999) under one rounding bound, M +- [(G P + R) H + guard] for the
float products M of the midpoints, P of their magnitudes and R of the
radius terms, with G and H floats above Higham's gamma_k factors (Accuracy
and Stability of Numerical Algorithms, section 3.1; _conv_factors) and a
tiny absolute guard for underflow.  Zero rows/columns stay exactly zero:
when every contributing product has a factor exactly 0.0 the float result
is exact and no guard is added, which the Taylor-model code relies on for
factoring out vanishing-edge monomials.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import IntervalDomainError
from .interval import PI, Interval, _cos_core, _sin_core

_U = Fraction(1, 2**53)    # unit roundoff, round-to-nearest binary64
_ABS_GUARD = 2.0**-960     # >> n * (underflow absolute error) for any sane n
_MAX_INNER = 4096          # inner dimensions the guard is sized for
_CHUNK = 16                # models per matmul pass of ConvOperand.conv; more buy memory, not time

_NEG_INF = -math.inf
_POS_INF = math.inf


# (get threads, set threads, core name) symbols of the OpenBLAS builds numpy
# ships or links: scipy-openblas with 64-bit and with 32-bit integers, plain
# OpenBLAS alike
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_", "scipy_openblas_get_corename64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads", "scipy_openblas_get_corename"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_", "openblas_get_corename64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads", "openblas_get_corename"),
)


@lru_cache(maxsize=None)
def _openblas():
    """The (get threads, set threads, core name) functions of the OpenBLAS
    loaded into this process, the last None if its build has none, or None
    when none is found.  Looked up once, on first use, among the shared
    objects mapped into the process (Linux)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for names in _BLAS_SYMBOLS:
            get, set_, core = (getattr(lib, name, None) for name in names)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                if core is not None:
                    core.restype, core.argtypes = ctypes.c_char_p, []
                return get, set_, core
    return None


@lru_cache(maxsize=None)
def _blas_threads():
    """The (get, set) thread-count functions of the OpenBLAS loaded into
    this process, or None when none is found."""
    found = _openblas()
    return found and found[:2]


def blas_core() -> str | None:
    """The kernel the loaded OpenBLAS runs, by the name OpenBLAS gives its
    core (SkylakeX, Haswell, ...; OPENBLAS_CORETYPE chooses it), or None
    when no OpenBLAS or no such name is found."""
    found = _openblas()
    return found[2]().decode() if found and found[2] else None


class _BlasHold:
    """The blocks of single_blas_thread open in the process, in any thread,
    and the thread count before the first of them."""

    lock = threading.Lock()
    depth = 0
    before = 0


@contextmanager
def single_blas_thread():
    """Run the block with OpenBLAS limited to one thread, and restore the
    previous count when the last open block ends; nests, in one thread or
    several, and does nothing when no OpenBLAS is found.  Every BLAS call
    powcert makes is too small to use a second thread, and idle pool threads
    cost CPU time.  Processes forked inside the block inherit the setting."""
    api = _blas_threads()
    if api is None:
        yield
        return
    get, set_ = api
    with _BlasHold.lock:
        if _BlasHold.depth == 0:
            _BlasHold.before = get()
            set_(1)
        _BlasHold.depth += 1
    try:
        yield
    finally:
        with _BlasHold.lock:
            _BlasHold.depth -= 1
            if _BlasHold.depth == 0:
                set_(_BlasHold.before)


def _gamma(k: int) -> Fraction:
    """gamma_k = k u / (1 - k u), exactly (Higham, section 3.1)."""
    return k * _U / (1 - k * _U)


@lru_cache(maxsize=None)
def _sum_factor(n: int) -> float:
    """A float above g / (1 - g), g = gamma_(n-1): see IArr.sum."""
    g = _gamma(max(n - 1, 1))
    return math.nextafter(float(g / (1 - g)), math.inf)


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
        # an Interval or an IArr
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

    def intersect(self, other) -> "IArr":
        o = self._coerce(other)
        lo, hi = np.maximum(self.lo, o.lo), np.minimum(self.hi, o.hi)
        if np.any(lo > hi):
            raise IntervalDomainError("empty intersection of interval arrays")
        return IArr(lo, hi)

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
        as one row, in the order .sum() sums a C-contiguous item alone.  The
        rounding is at most g = gamma_(n-1) times the sum of magnitudes
        (Higham, section 4.2), which is at most its float value / (1 - g)."""
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
        g = _sum_factor(n)
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
    """Product of A in [Am +- Ar] and B in [Bm +- Br], inner dimension k:
    AB lies in Am Bm +- [Ar |Bm| + (|Am| + Ar) Br], M = fl(Am Bm) in
    Am Bm +- gamma_k |Am||Bm|, and the float products P = fl(|Am||Bm|) and
    R = fl(Ar |Bm| + fl(|Am| + Ar) Br) are at most a factor 1 - gamma_(2k+1)
    below their exact values, so the result is M +- [(G P + R) H + guard],
    G and H from _conv_factors(k, 1), as one stage of iv_conv2d_batch.
    Entries whose every contributing magnitude is exactly zero stay 0."""
    k = Am.shape[-1] if Am.ndim else 1
    if k > _MAX_INNER:
        raise IntervalDomainError("inner dimension too large for the stock inflation factor")
    G, H = _conv_factors(k, 1)
    Cm = Am @ Bm
    absA = np.abs(Am)
    absB = np.abs(Bm)
    P = absA @ absB
    R = Ar @ absB + (absA + Ar) @ Br
    # an output entry is exactly zero iff its row of A or column of B is
    # identically zero (then every contributing product is exactly 0.0);
    # testing the inputs keeps this sound under underflow.  Rows and
    # columns are tested per matrix of a stack.
    arow = np.max(absA + Ar, axis=-1)
    bcol = np.max(absB + Br, axis=-2)
    zero = (arow[..., :, None] == 0.0) | (bcol[..., None, :] == 0.0)
    Cr = np.where(zero, 0.0, (G * P + R) * H + _ABS_GUARD)
    return IArr(np.where(zero, 0.0, _dn(Cm - Cr)), np.where(zero, 0.0, _up(Cm + Cr)))


def iv_corr2d(T: IArr, K: IArr) -> IArr:
    """Cross-correlation: out[a, b] = sum_ij K[i, j] T[a + i, b + j].

    K may be a stack of kernels (..., p, q), correlated with the one T: a
    windowed matrix-vector product, the window matrix gathered once from
    T's midpoints and radii, and each item has the bits of its correlation
    alone."""
    (Tm, Tr), (Km, Kr) = T.mid_rad(), K.mid_rad()
    (P, Q), (p, q), stack = Tm.shape, Km.shape[-2:], Km.shape[:-2]
    Wm, Wr = (sliding_window_view(a, (p, q)).reshape(-1, p * q) for a in (Tm, Tr))
    out = _mr_matmul(Wm, Wr, Km.reshape(stack + (p * q, 1)), Kr.reshape(stack + (p * q, 1)))
    shape = stack + (P - p + 1, Q - q + 1)
    return IArr(out.lo.reshape(shape), out.hi.reshape(shape))


@lru_cache(maxsize=64)
def _conv_factors(b: int, terms: int) -> tuple[float, float]:
    """Floats above G = g(b) + g(L - 1) (1 + g(b)) and
    H = 1 / ((1 - g(2b + 1)) (1 - g(L - 1)) (1 - u)^4), g(k) = k u / (1 - k u)
    (Higham, Accuracy and Stability of Numerical Algorithms, section 3.1),
    for rows of b entries and L = terms row products per output entry."""
    g1, g2, g3 = (_gamma(k) for k in (b, terms - 1, 2 * b + 1))
    exact = (g1 + g2 * (1 + g1), 1 / ((1 - g3) * (1 - g2) * (1 - _U) ** 4))
    return tuple(math.nextafter(float(x), math.inf) for x in exact)


class ConvOperand:
    """The right factor V (B, c, d) of full 2-D convolutions, prepared once
    for any number of left stacks U (B, a, b):
    conv(U)[k, s, t] = sum_ij U[k, i, j] V[k, s - i, t - j].

    The prepared form is the Toeplitz blocks T[k, f, j, r, t] = X[k, r, f, t + j]
    of V's rows X[k, r] = (Vm, |Vm|, Vr), each padded by b - 1 zeros on both
    sides, shape (B, 3, b, c, b + d - 1), read-only.  They depend on U's
    column count b and are built again for a U of another b.

    Per chunk of _CHUNK items, conv multiplies U's rows (columns reversed)
    with the chunk's blocks (one stacked matmul, inner dimension b), then
    adds the a shifted slices of those row products.  Both stages carry four
    sums: M of Um Vm, P of |Um| |Vm|, Q of Ur |Vm| + (|Um| + Ur) Vr, and Z of
    |Vm| + Vr over the nonzero entries of U.  The result lies in
    M +- [(G P + Q) H + guard] (_conv_factors); an entry with Z = 0, every
    product with a factor exactly zero in midpoint and radius, is exactly 0.
    Each item has the bits of the item alone."""

    __slots__ = ("V", "b", "T")

    def __init__(self, V: IArr):
        self.V, self.b, self.T = V, None, None

    def _blocks(self, b: int) -> np.ndarray:
        if b != self.b:
            Vm, Vr = self.V.mid_rad()
            batch, c, d = Vm.shape
            X, v = np.zeros((batch, c, 3, d + 2 * b - 2)), slice(b - 1, b - 1 + d)
            X[:, :, 0, v], X[:, :, 1, v], X[:, :, 2, v] = Vm, np.abs(Vm), Vr
            T = np.ascontiguousarray(sliding_window_view(X, b + d - 1, axis=3).transpose(0, 2, 3, 1, 4))
            T.flags.writeable = False
            self.b, self.T = b, T
        return self.T

    def conv(self, U: IArr) -> IArr:
        """The convolution of each item of U (B, a, b) with the same item of V."""
        batch, a, b = U.shape
        if batch != self.V.shape[0]:
            raise ValueError(f"a stack of {batch} items against an operand of {self.V.shape[0]}")
        if b > _MAX_INNER:
            raise IntervalDomainError("inner dimension too large for the stock inflation factor")
        T = self._blocks(b)
        c, w = T.shape[3:]
        G, H = _conv_factors(b, min(a, c))
        n = min(_CHUNK, batch)
        lo, hi = np.empty((2, batch, a + c - 1, w))
        # a chunk's work arrays, reused, zero blocks never written: U's rows
        # reversed as block rows M, P, Q, Z, their row products and sums
        R, rows, S = np.zeros((n, 4, a, 3, b)), np.empty((n, 4 * a, c * w)), np.empty((n, 4, a + c - 1, w))
        for at in range(0, batch, _CHUNK):
            k, m = slice(at, at + _CHUNK), min(_CHUNK, batch - at)
            Um, Ur = U[k].mid_rad()
            Um, Ur = Um[..., ::-1], Ur[..., ::-1]
            R[:m, 0, :, 0], R[:m, 1, :, 1], R[:m, 2, :, 1] = Um, np.abs(Um), Ur
            np.add(R[:m, 1, :, 1], Ur, out=R[:m, 2, :, 2])
            R[:m, 3, :, 1] = R[:m, 3, :, 2] = R[:m, 2, :, 2] != 0.0
            np.matmul(R[:m].reshape(m, 4 * a, 3 * b), T[k].reshape(m, 3 * b, c * w), out=rows[:m])
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


def iv_conv2d_batch(U: IArr, V: IArr) -> IArr:
    """Full 2-D convolution of each item of the stack U (B, a, b) with the
    same item of V (B, c, d): out[k, s, t] = sum_ij U[k, i, j] V[k, s - i, t - j],
    ConvOperand applied per chunk of _CHUNK items, whose blocks alone are
    held.  Each item has the bits of the item alone."""
    parts = [ConvOperand(V[k : k + _CHUNK]).conv(U[k : k + _CHUNK]) for k in range(0, max(len(U), 1), _CHUNK)]
    return IArr(np.concatenate([p.lo for p in parts]), np.concatenate([p.hi for p in parts]))


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


def sin_cos_pi(residues) -> tuple[IArr, IArr]:
    """Enclosures of sin(pi r) and cos(pi r) for every exact rational r of
    residues, as two IArrs of len(residues).

    r is reduced exactly, r = 2n + j/2 + s with |s| <= 1/4, so the only
    rounding is in pi s and the Taylor cores at it; at a multiple of 1/2
    (s = 0) both values are exact.  r and r + 2 give the same bits, and every
    entry has the bits of its residue evaluated alone.  Each distinct residue
    is evaluated once."""
    keys = {}
    at = np.array([keys.setdefault(Fraction(r) % 2, len(keys)) for r in residues], dtype=np.intp)
    j = np.array([round(2 * r) for r in keys], dtype=np.intp)
    s = [r - Fraction(int(k), 2) for r, k in zip(keys, j)]
    rho = IArr.from_intervals([Interval.from_fraction(v) for v in s]) * PI
    sin, cos = _sin_core(rho), _cos_core(rho)
    exact = np.array([v == 0 for v in s], dtype=bool)
    cycle = np.array([0.0, 1.0, 0.0, -1.0])  # at pi s = 0, exactly

    def entry(k: np.ndarray) -> IArr:
        # entry k mod 4 of the cycle (sin, cos, -sin, -cos) at pi s
        lo, hi = np.where(k % 2, cos.lo, sin.lo), np.where(k % 2, cos.hi, sin.hi)
        neg = k % 4 >= 2
        lo, hi = np.where(neg, -hi, lo), np.where(neg, -lo, hi)
        at_zero = cycle[k % 4]
        return IArr(np.where(exact, at_zero, lo), np.where(exact, at_zero, hi))

    return entry(j)[at], entry(j + 1)[at]
