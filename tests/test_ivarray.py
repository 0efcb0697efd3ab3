"""Array interval layer: matmul/conv/corr against scalar references."""

import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from powcert import interval, ivarray
from powcert.errors import IntervalDomainError
from powcert.interval import PI, Interval
from powcert.ivarray import (
    _CHUNK,
    ConvOperand,
    IArr,
    iv_conv1d_full,
    iv_conv2d_batch,
    iv_conv2d_full,
    iv_corr2d,
    iv_matmul,
    iv_outer,
    sin_cos_pi,
    single_blas_thread,
)

# the thread-count controls of the OpenBLAS numpy loaded, or None
BLAS = ivarray._blas_threads()
needs_blas = pytest.mark.skipif(BLAS is None, reason="no OpenBLAS thread control found")


# ----------------------------------------------------------------------
# reference kernels: the earlier forms of the products, kept to check
# that the current ones give the same bits, or for the convolution an
# enclosure inside theirs
# ----------------------------------------------------------------------

def ref_mul(self, other):
    """IArr * other by stacking the four endpoint products."""
    o = IArr._coerce(other)
    p = np.stack(
        np.broadcast_arrays(
            self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi
        )
    )
    return IArr(np.nextafter(p.min(axis=0), -np.inf), np.nextafter(p.max(axis=0), np.inf))


def ref_truediv(self, other):
    o = IArr._coerce(other)
    q = np.stack(
        np.broadcast_arrays(
            self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi
        )
    )
    return IArr(np.nextafter(q.min(axis=0), -np.inf), np.nextafter(q.max(axis=0), np.inf))


def ref_corr2d(T, K):
    """Correlation through lo/hi window matrices and iv_matmul."""
    p, q = K.shape
    P, Q = T.shape
    A, B = P - p + 1, Q - q + 1
    wm = np.lib.stride_tricks.sliding_window_view(T.lo, (p, q)).reshape(A * B, p * q)
    wh = np.lib.stride_tricks.sliding_window_view(T.hi, (p, q)).reshape(A * B, p * q)
    kv = IArr(K.lo.reshape(p * q, 1), K.hi.reshape(p * q, 1))
    out = iv_matmul(IArr(wm, wh), kv)
    return IArr(out.lo.reshape(A, B), out.hi.reshape(A, B))


def ref_conv2d_full(U, V):
    """Full convolution by zero-padding the lo/hi arrays of V: the window
    kernel that iv_conv2d_batch replaced."""
    m, n = U.shape
    v, w = V.shape
    Tlo = np.zeros((v + 2 * (m - 1), w + 2 * (n - 1)))
    Thi = Tlo.copy()
    Tlo[m - 1 : m - 1 + v, n - 1 : n - 1 + w] = V.lo
    Thi[m - 1 : m - 1 + v, n - 1 : n - 1 + w] = V.hi
    Kf = IArr(U.lo[::-1, ::-1].copy(), U.hi[::-1, ::-1].copy())
    return ref_corr2d(IArr(Tlo, Thi), Kf)


def ref_conv2d_items(U, V):
    """ref_conv2d_full of each item of U with the same item of V."""
    out = [ref_conv2d_full(U[b], V[b]) for b in range(len(U))]
    return IArr(np.stack([c.lo for c in out]), np.stack([c.hi for c in out]))


def inside_no_wider(new: IArr, ref: IArr) -> bool:
    """new lies inside ref, is no wider in any entry, and is exactly 0
    wherever ref is."""
    zero = (ref.lo == 0.0) & (ref.hi == 0.0)
    return (
        new.shape == ref.shape
        and bool(np.all(new.lo >= ref.lo) and np.all(new.hi <= ref.hi))
        and bool(np.all(new.hi - new.lo <= ref.hi - ref.lo))
        and bool(np.all(new.lo[zero] == 0.0) and np.all(new.hi[zero] == 0.0))
    )


def same_bits(a: IArr, b: IArr) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.lo, b.lo)
        and np.array_equal(a.hi, b.hi)
        and np.array_equal(np.signbit(a.lo), np.signbit(b.lo))
        and np.array_equal(np.signbit(a.hi), np.signbit(b.hi))
    )


# midpoints include both zeros and subnormals; radii include 0, the
# smallest subnormals and ordinary widths
MIDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)
RADS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-320, 2.0**-1022]),
    st.floats(0.0, 1e-3, allow_nan=False, allow_infinity=False),
)


@st.composite
def iarrs(draw, shape):
    """Interval arrays [m - r, m + r] with some rows and columns exactly
    zero (as the vanishing-edge factoring leaves them)."""
    m = draw(hnp.arrays(np.float64, shape, elements=MIDS))
    r = draw(hnp.arrays(np.float64, shape, elements=RADS))
    lo, hi = m - r, m + r
    for axis in range(len(shape)):
        zero = draw(hnp.arrays(np.bool_, shape[axis], elements=st.booleans()))
        idx = (slice(None),) * axis + (zero,)
        lo[idx] = hi[idx] = draw(st.sampled_from([0.0, -0.0]))
    return IArr(lo, hi)


def model_shapes():
    """Taylor-model shapes: degree n coefficient matrices at degrees 6 and
    10, and small odd ones."""
    return st.one_of(st.sampled_from([6, 10]), st.integers(1, 4))


def random_iarr(rng, shape, scale=1.0, width=0.1):
    lo = rng.uniform(-scale, scale, shape)
    hi = lo + rng.uniform(0, width, shape)
    return IArr(lo, hi)


def scalar_matmul(A, B):
    n, k = A.shape
    k2, m = B.shape
    out = [[None] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = Interval(0.0)
            for t in range(k):
                acc = acc + A[i, t].item() * B[t, j].item()
            out[i][j] = acc
    return out


class TestEntrywise:
    def test_add_mul_containment(self):
        rng = np.random.default_rng(0)
        A = random_iarr(rng, (5, 7))
        B = random_iarr(rng, (5, 7))
        xs = 0.5 * (A.lo + A.hi)
        ys = 0.5 * (B.lo + B.hi)
        assert np.all((A + B).contains(xs + ys))
        assert np.all((A * B).contains(xs * ys))
        assert np.all((A - B).contains(xs - ys))

    def test_sqr_tight_at_zero(self):
        A = IArr(np.array([-1.0, 0.5]), np.array([2.0, 1.0]))
        S = A.sqr()
        assert S.lo[0] == 0.0 and S.hi[0] >= 4.0
        assert S.lo[1] > 0.2

    def test_sum_soundness(self):
        rng = np.random.default_rng(1)
        A = random_iarr(rng, (1000,), scale=10, width=0.01)
        s = A.sum().item()
        mid_sum = float(np.sum(0.5 * (A.lo + A.hi)))
        assert s.contains(mid_sum)
        exact_lo = float(np.sum(A.lo.astype(np.longdouble)))
        assert s.lo <= exact_lo


class TestMatmul:
    def test_against_scalar_reference(self):
        rng = np.random.default_rng(2)
        A = random_iarr(rng, (4, 6))
        B = random_iarr(rng, (6, 3))
        C = iv_matmul(A, B)
        ref = scalar_matmul(A, B)
        for i in range(4):
            for j in range(3):
                r = ref[i][j]
                c = C[i, j].item()
                # containment of the true value set both ways within slack
                assert c.lo <= r.mid <= c.hi
                assert c.lo <= r.lo + 1e-12 and c.hi >= r.hi - 1e-12

    def test_point_matrices_near_exact(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 20))
        b = rng.standard_normal((20, 20))
        C = iv_matmul(IArr.exact(a), IArr.exact(b))
        ref = a.astype(np.longdouble) @ b.astype(np.longdouble)
        assert np.all(C.lo.astype(np.longdouble) <= ref)
        assert np.all(ref <= C.hi.astype(np.longdouble))
        assert np.max(C.hi - C.lo) < 1e-12

    def test_zero_rows_stay_exact(self):
        # factoring out vanishing-edge monomials relies on this
        rng = np.random.default_rng(4)
        A = random_iarr(rng, (5, 4))
        A.lo[2, :] = 0.0
        A.hi[2, :] = 0.0
        B = random_iarr(rng, (4, 3))
        C = iv_matmul(A, B)
        assert np.all(C.lo[2] == 0.0) and np.all(C.hi[2] == 0.0)

    def test_stacked_zero_column_of_one_item(self):
        # a column that is zero in one matrix of a stack only is not an
        # exact zero column of the product
        A = IArr.exact(np.ones((2, 3, 3)))
        B = IArr.exact(np.ones((2, 3, 3)))
        B.lo[:, 1, 2] = B.hi[:, 1, 2] = 0.0
        B.lo[0, :, 1] = B.hi[0, :, 1] = 0.0
        C = iv_matmul(A, B)
        assert C[0, 1, 2].item().contains(2.0) and C[1, 1, 2].item().contains(2.0)
        assert (C.lo[0, :, 1] == 0.0).all() and (C.hi[0, :, 1] == 0.0).all()
        assert C[1, 1, 1].item().contains(3.0)

    def test_interval_widths_reasonable(self):
        rng = np.random.default_rng(5)
        A = random_iarr(rng, (10, 10), width=1e-8)
        B = random_iarr(rng, (10, 10), width=1e-8)
        C = iv_matmul(A, B)
        assert np.max(C.hi - C.lo) < 1e-5


class TestConvCorr:
    def test_corr2d_reference(self):
        rng = np.random.default_rng(6)
        T = random_iarr(rng, (6, 6))
        K = random_iarr(rng, (3, 3))
        C = iv_corr2d(T, K)
        assert C.shape == (4, 4)
        for a in range(4):
            for b in range(4):
                acc = Interval(0.0)
                for i in range(3):
                    for j in range(3):
                        acc = acc + K[i, j].item() * T[a + i, b + j].item()
                c = C[a, b].item()
                assert c.lo <= acc.mid <= c.hi
                assert c.lo <= acc.lo + 1e-11 and c.hi >= acc.hi - 1e-11

    def test_conv2d_polynomial_identity(self):
        # (1 + x + y)^2 coefficients via conv of coefficient matrices
        U = IArr.exact(np.array([[1.0, 1.0], [1.0, 0.0]]))  # 1 + y + x
        C = iv_conv2d_full(U, U)
        expect = np.array([[1.0, 2.0, 1.0], [2.0, 2.0, 0.0], [1.0, 0.0, 0.0]])
        assert np.all(np.abs(C.mid() - expect) < 1e-14)
        assert np.all(C.hi - C.lo < 1e-13)

    def test_conv1d(self):
        u = IArr.exact(np.array([1.0, 2.0, -3.0]))
        v = IArr.exact(np.array([1.0, -1.0, 1.0]))
        c = iv_conv1d_full(u, v)
        # (1 + 2x - 3x^2)(1 - x + x^2) = 1 + x - 4x^2 + 5x^3 - 3x^4
        expect = np.array([1.0, 1.0, -4.0, 5.0, -3.0])
        assert np.all(np.abs(c.mid() - expect) < 1e-14)

    def test_outer(self):
        a = IArr.exact(np.array([1.0, 2.0]))
        b = IArr.exact(np.array([3.0, 4.0]))
        o = iv_outer(a, b)
        assert np.all(np.abs(o.mid() - np.array([[3.0, 4.0], [6.0, 8.0]])) < 1e-14)


class TestSameBitsAsReference:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 12), st.integers(1, 12))
    def test_mul_and_div(self, data, a, b):
        A = data.draw(iarrs((a, b)))
        B = data.draw(iarrs((a, b)))
        assert same_bits(A * B, ref_mul(A, B))
        col = data.draw(iarrs((a, 1)))
        assert same_bits(A * col, ref_mul(A, col))
        x = Interval(*sorted(data.draw(st.tuples(MIDS, MIDS))))
        assert same_bits(A * x, ref_mul(A, x))
        lo = data.draw(st.floats(0.5, 2.0))
        den = IArr(np.full((a, b), lo), np.full((a, b), 2 * lo))
        assert same_bits(A / den, ref_truediv(A, den))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), model_shapes())
    def test_conv2d_full(self, data, n):
        # the two-stage kernel bounds its rounding per stage, more tightly
        # than the window kernel's one inflation factor: its enclosure lies
        # inside the old one instead of matching its bits
        U = data.draw(iarrs((n + 1, n + 1)))
        V = data.draw(iarrs((n + 1, n + 1)))
        assert inside_no_wider(iv_conv2d_full(U, V), ref_conv2d_full(U, V))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), model_shapes())
    def test_corr2d_gram_shape(self, data, n):
        # the gram tables correlate a (2n+1)^2 corner table with a model
        T = data.draw(iarrs((2 * n + 1, 2 * n + 1)))
        K = data.draw(iarrs((n + 1, n + 1)))
        assert same_bits(iv_corr2d(T, K), ref_corr2d(T, K))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(3, 9), st.integers(3, 9), st.integers(2, 5), st.integers(2, 5))
    def test_corr2d_rectangular(self, data, P, Q, p, q):
        # windows and outputs at least 2 x 2, as in every Taylor-model
        # product: with a unit dimension the reference's reshape returns a
        # Fortran-ordered view, which numpy multiplies as a transposed
        # matrix, in another summation order
        p, q = min(p, P - 1), min(q, Q - 1)
        T = data.draw(iarrs((P, Q)))
        K = data.draw(iarrs((p, q)))
        assert same_bits(iv_corr2d(T, K), ref_corr2d(T, K))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 4), st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))
    def test_stacked_matmul_per_item(self, data, g, m, k, n):
        # items with their own exact-zero rows and columns; stacks as the
        # sweep forms them: contiguous, transposed items, a 2-D operand
        # broadcast against a stack
        def stack(shape):
            items = [data.draw(iarrs(shape)) for _ in range(g)]
            return IArr(np.stack([a.lo for a in items]), np.stack([a.hi for a in items]))

        def transposed(a):
            return IArr(np.swapaxes(a.lo, 1, 2), np.swapaxes(a.hi, 1, 2))

        A, B, Bt = stack((m, k)), stack((k, n)), transposed(stack((n, k)))
        A2, B2 = data.draw(iarrs((m, k))), data.draw(iarrs((k, n)))
        for left, right in ((A, B), (A, Bt), (A2, B), (A, B2)):
            C = iv_matmul(left, right)
            for b in range(g):
                item_l = left if left.ndim == 2 else left[b]
                item_r = right if right.ndim == 2 else right[b]
                assert same_bits(C[b], iv_matmul(item_l, item_r))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), model_shapes(), st.integers(1, 4))
    def test_stacked_corr2d_per_item(self, data, n, g):
        T = data.draw(iarrs((2 * n + 1, 2 * n + 1)))
        items = [data.draw(iarrs((n + 1, n + 1))) for _ in range(g)]
        K = IArr(np.stack([k.lo for k in items]), np.stack([k.hi for k in items]))
        C = iv_corr2d(T, K)
        for b in range(g):
            assert same_bits(C[b], iv_corr2d(T, items[b]))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 4), st.integers(1, 21), st.integers(1, 21))
    def test_sum_over_axes_per_item(self, data, g, m, n):
        items = [data.draw(iarrs((m, n))) for _ in range(g)]
        A = IArr(np.stack([a.lo for a in items]), np.stack([a.hi for a in items]))
        s = A.sum(axis=(1, 2))
        assert s.shape == (g,)
        for b in range(g):
            assert same_bits(s[b], items[b].sum())
        # a leading axis moves to the end
        moved = IArr(np.moveaxis(A.lo, 0, 2), np.moveaxis(A.hi, 0, 2))
        assert same_bits(moved.sum(axis=(0, 1)), s)


def random_items(rng, count, shape):
    """count interval arrays [m - r, m + r] drawn as iarrs draws them: both
    zeros, subnormal midpoints and radii, exactly zero rows and columns."""
    mids = rng.choice([0.0, -0.0, 1.0, -1.0, 5e-324, -1e-310, 2.0**-1022, 3.0], (count,) + shape)
    mids = np.where(rng.random(mids.shape) < 0.5, rng.uniform(-4.0, 4.0, mids.shape), mids)
    rads = rng.choice([0.0, 5e-324, 1e-320, 2.0**-1022, 1e-6], mids.shape)
    lo, hi = mids - rads, mids + rads
    for axis in (1, 2):
        zero = rng.random(shape[axis - 1]) < 0.25
        idx = (slice(None),) * axis + (zero,)
        lo[idx] = hi[idx] = 0.0
    return IArr(lo, hi)


def exact_conv2d(u, v):
    """Full 2-D convolution of two matrices of Fractions, exactly."""
    (a, b), (c, d) = u.shape, v.shape
    out = np.full((a + c - 1, b + d - 1), Fraction(0), dtype=object)
    for i in range(a):
        for j in range(b):
            if u[i, j]:
                out[i : i + c, j : j + d] += u[i, j] * v
    return out


def as_fractions(a):
    return np.vectorize(Fraction, otypes=[object])(a)


def drawn_points(data, A):
    """A point of each interval of A, an endpoint drawn per entry, as
    Fractions."""
    pick = data.draw(hnp.arrays(np.bool_, A.shape, elements=st.booleans()))
    return as_fractions(np.where(pick, A.lo, A.hi))


def encloses(C, exact) -> bool:
    return bool(np.all(as_fractions(C.lo) <= exact) and np.all(exact <= as_fractions(C.hi)))


class TestContainsExact:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(2, 6), st.integers(1, 6), st.integers(1, 6))
    def test_matmul(self, data, g, m, k, n):
        # stacks of g items and their first items alone; in every item row 0
        # of A cancels against B to an exact 0 on point intervals (its
        # entries in opposite pairs against pairs of equal rows of B), and
        # row 1 is zero
        A = IArr.stack([data.draw(iarrs((m, 2 * k))) for _ in range(g)])
        B = IArr.stack([data.draw(iarrs((2 * k, n))) for _ in range(g)])
        A.lo[:, 0, 1::2], A.hi[:, 0, 1::2] = -A.hi[:, 0, ::2], -A.lo[:, 0, ::2]
        B.lo[:, 1::2], B.hi[:, 1::2] = B.lo[:, ::2], B.hi[:, ::2]
        A.lo[:, 1] = A.hi[:, 1] = 0.0
        for left, right in ((A, B), (A[0], B), (A[0], B[0])):
            C = iv_matmul(left, right)
            assert (C.lo[..., 1, :] == 0.0).all() and (C.hi[..., 1, :] == 0.0).all()
            for _ in range(2):
                assert encloses(C, drawn_points(data, left) @ drawn_points(data, right))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(1, 20))
    def test_sum(self, data, g, n):
        # every row's second half is its first half negated: a sum that
        # cancels to an exact 0 on point intervals
        A = data.draw(iarrs((g, 2 * n)))
        A.lo[:, n:], A.hi[:, n:] = -A.hi[:, :n], -A.lo[:, :n]
        rows, total = A.sum(axis=1), A.sum()
        for _ in range(2):
            pts = drawn_points(data, A)
            assert encloses(rows, pts.sum(axis=1)) and encloses(total, pts.sum())


class TestConvBatch:
    @settings(max_examples=15, deadline=None)
    @given(
        st.data(),
        model_shapes(),
        st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 127, 128, 129, 300]),
        st.integers(0, 2**32 - 1),
    )
    def test_item_has_bits_of_item_alone(self, data, n, batch, seed):
        # chunk edges fall inside the larger batches
        shape = (n + 1, n + 1)
        rng = np.random.default_rng(seed)
        U, V = random_items(rng, batch, shape), random_items(rng, batch, shape)
        for b in {0, batch // 2, batch - 1}:
            U[b], V[b] = data.draw(iarrs(shape)), data.draw(iarrs(shape))
        C = iv_conv2d_batch(U, V)
        for b in range(batch):
            assert same_bits(C[b], iv_conv2d_full(U[b], V[b]))

    def test_rectangular_items(self):
        rng = np.random.default_rng(7)
        U, V = random_items(rng, 70, (3, 5)), random_items(rng, 70, (4, 2))
        C = iv_conv2d_batch(U, V)
        assert C.shape == (70, 6, 6)
        for b in range(70):
            assert same_bits(C[b], iv_conv2d_full(U[b], V[b]))
            assert inside_no_wider(C[b], ref_conv2d_full(U[b], V[b]))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 4), model_shapes(), model_shapes())
    def test_inside_window_kernel_per_item(self, data, g, n, m):
        U = IArr.stack([data.draw(iarrs((n + 1, m + 1))) for _ in range(g)])
        V = IArr.stack([data.draw(iarrs((m + 1, n + 1))) for _ in range(g)])
        assert inside_no_wider(iv_conv2d_batch(U, V), ref_conv2d_items(U, V))

    @settings(max_examples=25, deadline=None)
    @given(st.data(), model_shapes())
    def test_contains_exact_convolution(self, data, n):
        U = data.draw(iarrs((n + 1, n + 1)))
        V = data.draw(iarrs((n + 1, n + 1)))
        C = iv_conv2d_full(U, V)
        for _ in range(2):
            assert encloses(C, exact_conv2d(drawn_points(data, U), drawn_points(data, V)))

    @pytest.mark.parametrize("batch", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    def test_prepared_operand_has_bits_of_fresh_kernel(self, batch):
        # one operand against several stacks U: of V's row count and not,
        # of another column count b (its blocks built again) and back; each
        # product has the bits of a fresh kernel call, so no product writes
        # into the blocks the next one reads.  random_items zeroes whole
        # rows and columns, which the zero mask must keep exactly 0
        rng = np.random.default_rng(batch)
        V = random_items(rng, batch, (4, 6))
        V_lo, V_hi = V.lo.copy(), V.hi.copy()
        op = ConvOperand(V)
        for shape in [(3, 5), (4, 5), (3, 5), (2, 7), (7, 1), (3, 5)]:
            U = random_items(rng, batch, shape)
            U_lo, U_hi = U.lo.copy(), U.hi.copy()
            assert same_bits(op.conv(U), iv_conv2d_batch(U, V)), shape
            assert np.array_equal(U.lo, U_lo) and np.array_equal(U.hi, U_hi)
            assert op.b == shape[1] and not op.T.flags.writeable
        assert np.array_equal(V.lo, V_lo) and np.array_equal(V.hi, V_hi)

    def test_operand_rejects_another_batch(self):
        rng = np.random.default_rng(2)
        op = ConvOperand(random_items(rng, 17, (3, 3)))
        for batch in (16, 18):
            with pytest.raises(ValueError, match="17"):
                op.conv(random_items(rng, batch, (3, 3)))

    def test_inner_dimension_guard(self):
        U = IArr.exact(np.ones((1, 1, 4097)))
        V = IArr.exact(np.ones((1, 2, 2)))
        with pytest.raises(IntervalDomainError):
            iv_conv2d_batch(U, V)
        with pytest.raises(IntervalDomainError):
            iv_conv2d_full(U[0], V[0])
        # the guard's own size passes
        assert iv_conv2d_full(IArr.exact(np.ones((1, 4096))), V[0]).shape == (2, 4097)


class TestSinCosPi:
    def test_entries_have_bits_of_residue_alone(self):
        # duplicates, r and r + 2, exact multiples of 1/2 and every quadrant
        rs = [Fraction(n, d) for d in (1, 2, 3, 8, 12, 113) for n in range(-2 * d, 2 * d + 1)]
        rs += [Fraction(1, 3), Fraction(7, 3), Fraction(-5, 3), Fraction(1, 2)]
        s, c = sin_cos_pi(rs)
        assert s.shape == c.shape == (len(rs),)
        for k, r in enumerate(rs):
            alone = sin_cos_pi([r])
            assert same_bits(s[k : k + 1], alone[0]) and same_bits(c[k : k + 1], alone[1]), r

    def test_empty(self):
        s, c = sin_cos_pi([])
        assert s.shape == c.shape == (0,)

    def test_taylor_cores_entry_by_entry(self):
        # one Taylor core serves an Interval and an IArr, with the same bits
        rng = np.random.default_rng(5)
        rho = IArr.exact(rng.uniform(-0.8, 0.8, 40)) * PI * Interval(0.25)
        for core in (interval._sin_core, interval._cos_core):
            got = core(rho)
            for k in range(len(rho)):
                want = core(Interval(rho.lo[k], rho.hi[k]))
                assert (got.lo[k], got.hi[k]) == (want.lo, want.hi)

    def test_intersect(self):
        a = IArr([-2.0, 0.5], [0.5, 3.0])
        out = a.intersect(Interval(-1.0, 1.0))
        assert same_bits(out, IArr([-1.0, 0.5], [0.5, 1.0]))
        with pytest.raises(IntervalDomainError):
            a.intersect(Interval(4.0, 5.0))


class TestSingleBlasThread:
    @needs_blas
    def test_one_thread_inside_and_restored_when_nested(self):
        get, set_ = BLAS
        before = get()
        set_(2)
        try:
            with single_blas_thread():
                assert get() == 1
                with single_blas_thread():
                    assert get() == 1
                assert get() == 1
            assert get() == 2
            with pytest.raises(RuntimeError), single_blas_thread():
                raise RuntimeError("inside the block")
            assert get() == 2
        finally:
            set_(before)

    @needs_blas
    def test_restored_after_blocks_in_threads(self):
        # blocks of several threads overlap; the count before the first is
        # restored after the last, and none runs with more than one thread
        get, set_ = BLAS
        before, interval = get(), sys.getswitchinterval()
        set_(2)
        seen = set()

        def enter_often():
            for _ in range(300):
                with single_blas_thread():
                    seen.add(get())

        threads = [threading.Thread(target=enter_often) for _ in range(6)]
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert seen == {1} and get() == 2
        finally:
            sys.setswitchinterval(interval)
            set_(before)

    def test_nothing_without_library(self, monkeypatch):
        monkeypatch.setattr(ivarray, "_blas_threads", lambda: None)
        before = BLAS[0]() if BLAS else None
        with single_blas_thread():
            assert (BLAS[0]() if BLAS else None) == before

    def test_lookup_once_and_lazily(self):
        # the lookup is cached for the process, and importing powcert in a
        # fresh process makes none
        assert ivarray._blas_threads() is ivarray._blas_threads()
        code = "from powcert import cli, ivarray; print(ivarray._blas_threads.cache_info().misses)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"
