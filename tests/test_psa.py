"""Taylor-model arithmetic: worked golden cases and containment properties."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import clear_tables
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_ivarray import (
    MIDS,
    iarrs,
    inside_no_wider,
    model_shapes,
    ref_conv2d_full,
    ref_conv2d_items,
    ref_mul,
    same_bits,
)
from test_quad import window_gram_tables

from powcert import psa, quad
from powcert.errors import IntervalDomainError, PositivityError, UsageError
from powcert.galerkin import GalerkinConfig, newton_solve
from powcert.interval import Interval, iv_pow
from powcert.ivarray import IArr, iv_conv2d_full, iv_outer
from powcert.psa import ElemFn, PowerSeries1D, PowerSeries2D, ps_compose
from powcert.spectral import symmetric_indices

ULP = 2.0**-52
D01 = Interval(0.0, 0.1)


def only(iarr: IArr) -> Interval:
    """The only item of an IArr (1,), as the range or value of a single model."""
    return iarr[0].item()


def series_u():
    return PowerSeries1D.from_floats([1.0, 2.0, -3.0], D01)


def series_v():
    return PowerSeries1D.from_floats([1.0, -1.0, 1.0], D01)


def tensor(a: PowerSeries1D, b: PowerSeries1D) -> PowerSeries2D:
    """Outer product of an x-series and a y-series."""
    return PowerSeries2D(iv_outer(a.coeffs[0], b.coeffs[0]), (a.domain[0], b.domain[0]))


def coeff_close(model, idx, lo, hi, ulps=8):
    c = model.coeffs[0, idx].item()
    tol_lo = ulps * ULP * max(1.0, abs(lo))
    tol_hi = ulps * ULP * max(1.0, abs(hi))
    assert c.lo <= lo + tol_lo and c.lo >= lo - tol_lo, (c, lo, hi)
    assert c.hi >= hi - tol_hi and c.hi <= hi + tol_hi, (c, lo, hi)


class TestGoldenWorkedExamples:
    """The worked examples with degree 2 on [0, 0.1]."""

    def test_sum(self):
        s = series_u() + series_v()
        for idx, val in ((0, 2.0), (1, 1.0), (2, -2.0)):
            coeff_close(s, idx, val, val, ulps=4)

    def test_difference(self):
        d = series_u() - series_v()
        for idx, val in ((0, 0.0), (1, 3.0), (2, -4.0)):
            coeff_close(d, idx, val, val, ulps=4)

    def test_product(self):
        p = series_u() * series_v()
        coeff_close(p, 0, 1.0, 1.0, ulps=4)
        coeff_close(p, 1, 1.0, 1.0, ulps=4)
        coeff_close(p, 2, -4.0, -3.5, ulps=4)

    def test_log_composition(self):
        r = ps_compose(ElemFn.log(), series_u())
        coeff_close(r, 0, 0.0, 0.0, ulps=4)
        coeff_close(r, 1, 2.0, 2.0, ulps=8)
        coeff_close(r, 2, -5.0, float(Fraction(-143, 36)), ulps=16)
        c2 = r.coeffs[0, 2].item()
        assert c2.lo <= -5.0 and c2.hi >= float(Fraction(-143, 36))

    def test_range_of_u(self):
        r = only(series_u().range())
        assert r.lo >= 1.0 - 4 * ULP
        assert r.hi <= 1.2 + 4 * ULP

    def test_degree_reduction_worked(self):
        # 1 + x - 4x^2 + 5x^3 - 3x^4 -> degree 2 gives 1 + x + [-4, -3.5] x^2
        u = PowerSeries1D.from_floats([1.0, 1.0, -4.0, 5.0, -3.0], D01)
        v = u.reduce(2)
        coeff_close(v, 0, 1.0, 1.0, ulps=4)
        coeff_close(v, 1, 1.0, 1.0, ulps=4)
        coeff_close(v, 2, -4.0, -3.5, ulps=4)


class TestReduce:
    def test_already_reduced(self):
        u = series_u()
        assert u.reduce(2) is u

    def test_tail_range_derived(self):
        # x^2 + x^3 on [0,1] to degree 2: coefficient = range of 1 + x = [1,2]
        u = PowerSeries1D.from_floats([0.0, 0.0, 1.0, 1.0], Interval(0.0, 1.0))
        v = u.reduce(2)
        c = v.coeffs[0, 2].item()
        assert c.lo <= 1.0 and c.hi >= 2.0
        assert c.lo >= 1.0 - 4 * ULP and c.hi <= 2.0 + 4 * ULP

    def test_containment_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            deg = 6
            coeffs = rng.uniform(-2, 2, deg + 1)
            dom = Interval(-0.3, 0.5)
            u = PowerSeries1D.from_floats(coeffs, dom)
            v = u.reduce(3)
            for x in rng.uniform(dom.lo, dom.hi, 25):
                val = float(np.polyval(coeffs[::-1], x))
                assert only(v.eval_at(Interval(x))).contains(val)


class TestIdentities:
    def test_add_zero_series(self):
        u = series_u()
        z = PowerSeries1D.from_floats([0.0, 0.0, 0.0], D01)
        s = u + z
        for i in range(3):
            assert s.coeffs[0, i].item().contains(u.coeffs[0, i].item())

    def test_mul_one_series(self):
        u = series_u()
        one = PowerSeries1D.from_floats([1.0, 0.0, 0.0], D01)
        m = u * one
        for i in range(3):
            c = m.coeffs[0, i].item()
            r = u.coeffs[0, i].item()
            assert c.lo <= r.lo + 1e-12 and c.hi >= r.hi - 1e-12

    def test_degree_mismatch_raises(self):
        u = series_u()
        w = PowerSeries1D.from_floats([1.0, 0.0], D01)
        with pytest.raises(UsageError):
            u + w

    def test_domain_mismatch_raises(self):
        u = series_u()
        w = PowerSeries1D.from_floats([1.0, 0.0, 0.0], Interval(0.0, 0.2))
        with pytest.raises(UsageError):
            u * w


class TestRange:
    def test_constant(self):
        c = PowerSeries1D.from_floats([2.5, 0.0], Interval(-1.0, 1.0))
        assert only(c.range()).contains(2.5)

    def test_eval_outside_domain_raises(self):
        u = series_u()
        assert only(u.eval_at(Interval(0.1))).contains(1.17)
        with pytest.raises(UsageError):
            u.eval_at(Interval(0.05, 0.2))

    def test_identity_on_symmetric_domain(self):
        x = PowerSeries1D.from_floats([0.0, 1.0], Interval(-1.0, 1.0))
        r = only(x.range())
        assert r.contains(Interval(-1, 1))
        assert r.width <= 2.0 + 4 * ULP


class TestCompose:
    def test_identity_exponent(self):
        u = series_u()
        r = ps_compose(ElemFn.pow_q(Fraction(1, 1)), u)
        xs = np.linspace(0, 0.1, 30)
        for x in xs:
            val = 1.0 + 2.0 * x - 3.0 * x * x
            assert only(r.eval_at(Interval(x))).contains(val)

    def test_sqrt_of_constant_four(self):
        u = PowerSeries1D.from_floats([4.0, 0.0, 0.0], D01)
        r = ps_compose(ElemFn.pow_q(Fraction(1, 2)), u)
        assert only(r.eval_at(Interval(0.05))).contains(2.0)

    def test_positivity_failure_signal(self):
        u = PowerSeries1D.from_floats([0.05, -2.0], Interval(0.0, 0.1))
        with pytest.raises(PositivityError) as exc:
            ps_compose(ElemFn.pow_q(Fraction(1, 2)), u)
        assert exc.value.rng is not None

    def test_pow_matches_iv_pow_on_range(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            c0 = rng.uniform(1.0, 3.0)
            c1 = rng.uniform(-0.5, 0.5)
            c2 = rng.uniform(-0.5, 0.5)
            dom = Interval(-0.2, 0.2)
            u = PowerSeries1D.from_floats([c0, c1, c2, 0.0, 0.0], dom)
            if only(u.range()).lo <= 0.05:
                continue
            q = Fraction(1, 2)
            w = ps_compose(ElemFn.pow_q(q), u)
            target = iv_pow(only(u.range()), q)
            got = only(w.range())
            # the composed range sits inside the direct range inflated by the
            # quadratic-and-higher Taylor contributions over the domain
            dmag = dom.mag
            slack = 0.0
            for i in range(2, 5):
                slack += w.coeffs[0, i].item().mag * dmag**i
            slack = 4.0 * slack + 1e-9
            assert got.lo >= target.lo - slack
            assert got.hi <= target.hi + slack


class TestTwoDimensional:
    def test_tensor_bilinearity(self):
        a = PowerSeries1D.from_floats([1.0, 2.0, 0.5], D01)
        b = PowerSeries1D.from_floats([-1.0, 3.0, 0.25], D01)
        t = tensor(a, b)
        for i in range(3):
            for j in range(3):
                pa = a.coeffs[0, i].item()
                pb = b.coeffs[0, j].item()
                assert t.coeffs[0, i, j].item().contains(pa.mid * pb.mid)

    def test_xy_range_unit_square(self):
        one = Interval(0.0, 1.0)
        x = PowerSeries1D.from_floats([0.0, 1.0], one)
        y = PowerSeries1D.from_floats([0.0, 1.0], one)
        t = tensor(x, y)
        r = only(t.range())
        assert r.contains(Interval(0, 1))
        assert r.width <= 1.0 + 1e-12

    def test_2d_mul_containment(self):
        rng = np.random.default_rng(3)
        dom = (Interval(-0.25, 0.25), Interval(0.0, 0.4))
        for _ in range(15):
            ca = rng.uniform(-1, 1, (4, 4))
            cb = rng.uniform(-1, 1, (4, 4))
            from powcert.ivarray import IArr

            A = PowerSeries2D(IArr.exact(ca), dom)
            B = PowerSeries2D(IArr.exact(cb), dom)
            P = A * B
            for _ in range(25):
                x = rng.uniform(dom[0].lo, dom[0].hi)
                y = rng.uniform(dom[1].lo, dom[1].hi)
                va = float(np.polynomial.polynomial.polyval2d(x, y, ca))
                vb = float(np.polynomial.polynomial.polyval2d(x, y, cb))
                assert only(P.eval_at(Interval(x), Interval(y))).contains(va * vb)

    def test_2d_compose_sqrt_sampled(self):
        rng = np.random.default_rng(4)
        dom = (Interval(-0.2, 0.2), Interval(-0.2, 0.2))
        from powcert.ivarray import IArr

        cc = np.zeros((5, 5))
        cc[0, 0] = 2.0
        cc[1, 0] = 0.4
        cc[0, 1] = -0.3
        cc[1, 1] = 0.2
        U = PowerSeries2D(IArr.exact(cc), dom)
        W = ps_compose(ElemFn.pow_q(Fraction(1, 2)), U)
        for _ in range(60):
            x = rng.uniform(-0.2, 0.2)
            y = rng.uniform(-0.2, 0.2)
            val = np.sqrt(2.0 + 0.4 * x - 0.3 * y + 0.2 * x * y)
            assert only(W.eval_at(Interval(x), Interval(y))).contains(float(val))

    def test_2d_reduce_containment(self):
        rng = np.random.default_rng(5)
        from powcert.ivarray import IArr

        dom = (Interval(0.0, 0.5), Interval(0.0, 0.5))
        cc = rng.uniform(-1, 1, (6, 6))
        U = PowerSeries2D(IArr.exact(cc), dom)
        V = U.reduce(3)
        assert V.degree == 3
        for _ in range(40):
            x = rng.uniform(0, 0.5)
            y = rng.uniform(0, 0.5)
            val = float(np.polynomial.polynomial.polyval2d(x, y, cc))
            assert only(V.eval_at(Interval(x), Interval(y))).contains(val)


# ----------------------------------------------------------------------
# reference kernels: the single-model forms of Horner, reduce, range and
# composition, kept to check that the batched ones give the same bits,
# item by item
# ----------------------------------------------------------------------

def ref_horner_scalar(coeffs: IArr, x: Interval) -> Interval:
    """Interval Horner evaluation of a coefficient vector over x."""
    n = len(coeffs) - 1
    acc = coeffs[n].item()
    for i in range(n - 1, -1, -1):
        acc = acc * x + coeffs[i].item()
    return acc


def ref_horner_rows(rows: IArr, x: Interval) -> IArr:
    m = rows.shape[0] - 1
    acc = rows[m]
    for i in range(m - 1, -1, -1):
        acc = acc * x + rows[i]
    return acc


def ref_reduce(coeffs: IArr, dom, n) -> IArr:
    """Nested degree reduction of one coefficient matrix over dom = (dx, dy)."""
    mx = coeffs.shape[0] - 1
    my = coeffs.shape[1] - 1
    if n >= max(mx, my):
        return coeffs
    dx, dy = dom
    work = coeffs
    if mx > n:
        out = IArr(work.lo[: n + 1].copy(), work.hi[: n + 1].copy())
        tail = work[mx]
        for i in range(mx - 1, n - 1, -1):
            tail = tail * dx + work[i]
        out[n] = tail
        work = out
    if my > n:
        out = IArr(work.lo[:, : n + 1].copy(), work.hi[:, : n + 1].copy())
        tail = work[:, my]
        for j in range(my - 1, n - 1, -1):
            tail = tail * dy + work[:, j]
        out[:, n] = tail
        work = out
    return work


def ref_range(coeffs: IArr, dom) -> Interval:
    dx, dy = dom
    rows = ref_horner_rows(IArr(coeffs.lo.T.copy(), coeffs.hi.T.copy()), dy)
    return ref_horner_scalar(rows, dx)


class RefModel:
    """One two-variable model without a batch axis, on the reference
    kernels: what ref_ps_compose asks of a model."""

    def __init__(self, coeffs: IArr, domain):
        self.coeffs = coeffs
        self.domain = tuple(domain)

    @classmethod
    def item(cls, model: PowerSeries2D, b: int) -> "RefModel":
        c = model.coeffs
        return cls(IArr(c.lo[b].copy(), c.hi[b].copy()), [d[b].item() for d in model.domain])

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def range(self) -> Interval:
        return ref_range(self.coeffs, self.domain)

    def const_coeff(self) -> Interval:
        return self.coeffs[0, 0].item()

    def sub_const(self, c: float) -> "RefModel":
        out = self.coeffs.copy()
        out[0, 0] = out[0, 0].item() + Interval(-c)
        return RefModel(out, self.domain)

    def const_like(self, c: Interval) -> "RefModel":
        out = IArr.zeros(self.coeffs.shape)
        out[0, 0] = c
        return RefModel(out, self.domain)

    def scale(self, c: Interval) -> "RefModel":
        return RefModel(self.coeffs * c, self.domain)

    def __add__(self, other: "RefModel") -> "RefModel":
        return RefModel(self.coeffs + other.coeffs, self.domain)

    def __mul__(self, other: "RefModel") -> "RefModel":
        full = iv_conv2d_full(self.coeffs, other.coeffs)
        return RefModel(ref_reduce(full, self.domain, self.degree), self.domain)


def batch_of(models) -> PowerSeries2D:
    """RefModels as one batch."""
    return PowerSeries2D(
        IArr(np.stack([m.coeffs.lo for m in models]), np.stack([m.coeffs.hi for m in models])),
        tuple(IArr.from_intervals([m.domain[k] for m in models]) for k in (0, 1)),
    )


_deriv = ElemFn.deriv


def ref_deriv(f, i, t):
    """ElemFn.deriv as it was, rebuilding the falling factorial of t^q and
    its exponent on every call."""
    if f.tag != "pow_q":
        return _deriv(f, i, t)
    q = f.q
    fac = Fraction(1)
    for j in range(i):
        fac *= q - j
    if fac == 0:
        return Interval(0.0)
    return Interval.from_fraction(fac) * iv_pow(t, q - i)


def ref_ps_compose(f, u, orders=None):
    """ps_compose as it was, on one model; appends the remainder order it
    chooses to orders."""
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
    if orders is not None:
        orders.append(m_best)

    inv_fact = Fraction(1)
    taylor = [f.deriv(0, u0iv)]
    for i in range(1, m_best):
        inv_fact /= i
        taylor.append(f.deriv(i, u0iv) * Interval.from_fraction(inv_fact))
    c_rem = hull_derivs[m_best] * Interval.from_fraction(inv_fact / m_best)
    result = u.const_like(taylor[0])
    zp = z
    if m_best >= 2:
        result = result + zp.scale(taylor[1])
        for i in range(2, m_best):
            zp = zp * z
            result = result + zp.scale(taylor[i])
        zp = zp * z
    return result + zp.scale(c_rem)


# the batched kernels' references, item by item, to run the sweep on
def ref_reduce_batch(self, n):
    items = [ref_reduce(IArr(self.coeffs.lo[b], self.coeffs.hi[b]), [d[b].item() for d in self.domain], n)
             for b in range(self.batch)]
    return PowerSeries2D(IArr(np.stack([c.lo for c in items]), np.stack([c.hi for c in items])), self.domain)


def ref_range_batch(self):
    return IArr.from_intervals([RefModel.item(self, b).range() for b in range(self.batch)])


class RefOperand:
    """ivarray.ConvOperand on the window kernel."""

    def __init__(self, V):
        self.V = V

    def conv(self, U):
        return ref_conv2d_items(U, self.V)


# domains: a vanishing-edge box [0, w] (either zero), a centred box, or any
DOMAINS = st.one_of(
    st.builds(lambda w, z: Interval(z, w), st.floats(2.0**-12, 0.5), st.sampled_from([0.0, -0.0])),
    st.builds(lambda h: Interval(-h, h), st.floats(2.0**-12, 0.5)),
    st.builds(lambda a, b: Interval(min(a, b), max(a, b)), MIDS, MIDS),
)
# the sweep's two kinds of model domain
SWEEP_DOMAINS = st.one_of(
    st.builds(lambda w: Interval(0.0, w), st.floats(2.0**-8, 0.5)),
    st.builds(lambda h: Interval(-h, h), st.floats(2.0**-8, 0.5)),
)
QS = st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(1, 3)])


def drawn_batch(data, shape, domains=DOMAINS, size=st.integers(1, 4)):
    """A batch of RefModels with coefficients of the given shape and
    per-item domains."""
    return [
        RefModel(data.draw(iarrs(shape)), (data.draw(domains), data.draw(domains)))
        for _ in range(data.draw(size))
    ]


def compose_model(c0: float, mids: np.ndarray, scale: float, dom) -> RefModel:
    """A model with constant term c0 and the other coefficients mids * scale
    (radius 1e-12 relative), as the reduced model of a rectangle looks."""
    mids = mids * scale
    c = IArr(mids - np.abs(mids) * 1e-12, mids + np.abs(mids) * 1e-12)
    c[0, 0] = Interval(c0)
    return RefModel(c, dom)


def low_order_model(n: int) -> RefModel:
    """A positive model whose range nearly reaches 0: the best remainder
    order is below the degree."""
    mids = np.zeros((n + 1, n + 1))
    mids[1, 0] = 1.8
    return compose_model(1.0, mids, 1.0, (Interval(-0.5, 0.5), Interval(0.0, 0.25)))


def items_same_bits(batch: PowerSeries2D, refs) -> bool:
    return batch.batch == len(refs) and all(
        same_bits(IArr(batch.coeffs.lo[b], batch.coeffs.hi[b]), ref.coeffs) for b, ref in enumerate(refs)
    )


class TestSameBitsAsReference:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), model_shapes())
    def test_reduce_product_shape(self, data, n):
        # products before reduction: (2n+1)^2 coefficients down to degree n
        refs = drawn_batch(data, (2 * n + 1, 2 * n + 1))
        got = batch_of(refs).reduce(n)
        assert items_same_bits(got, [RefModel(ref_reduce(m.coeffs, m.domain, n), m.domain) for m in refs])

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(2, 8), st.integers(2, 8))
    def test_reduce_rectangular(self, data, mx, my):
        refs = drawn_batch(data, (mx + 1, my + 1))
        n = data.draw(st.integers(1, max(mx, my)))
        got = batch_of(refs).reduce(n)
        assert items_same_bits(got, [RefModel(ref_reduce(m.coeffs, m.domain, n), m.domain) for m in refs])

    @settings(max_examples=40, deadline=None)
    @given(st.data(), model_shapes())
    def test_range_and_rows(self, data, n):
        refs = drawn_batch(data, (n + 1, n + 1))
        model = batch_of(refs)
        got = model.range()
        for b, ref in enumerate(refs):
            r = ref.range()
            assert (got.lo[b], got.hi[b]) == (r.lo, r.hi)
        dx = model.domain[0]
        rows = IArr(*psa._horner(model.coeffs.lo, model.coeffs.hi, dx.lo, dx.hi))
        for b, ref in enumerate(refs):
            assert same_bits(rows[b], ref_horner_rows(ref.coeffs, ref.domain[0]))

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.sampled_from([2, 4, 6]), QS)
    def test_compose_batch(self, data, n, q):
        # models on both kinds of sweep domain, a batch mixing remainder
        # orders; q = 1/2 and 3/4 take the array derivatives, 1/3 the scalar
        refs = [low_order_model(n)]
        for _ in range(data.draw(st.integers(1, 4))):
            mids = data.draw(hnp.arrays(np.float64, (n + 1, n + 1), elements=st.floats(-1.0, 1.0)))
            dom = (data.draw(SWEEP_DOMAINS), data.draw(SWEEP_DOMAINS))
            model = compose_model(data.draw(st.floats(0.5, 3.0)), mids, data.draw(st.floats(0.0, 2.0)), dom)
            if model.range().lo > 0.0:
                refs.insert(data.draw(st.integers(0, len(refs))), model)
        f = ElemFn.pow_q(q)
        assert items_same_bits(ps_compose(f, batch_of(refs)), [ref_ps_compose(f, m) for m in refs])

    def test_compose_batch_mixes_orders(self):
        rng = np.random.default_rng(0)
        n = 6
        refs = [low_order_model(n)] + [
            compose_model(2.0, rng.uniform(-1.0, 1.0, (n + 1, n + 1)), 0.05, (Interval(0.0, 0.125), Interval(-0.0625, 0.0625)))
            for _ in range(3)
        ]
        for q in (Fraction(1, 2), Fraction(3, 4), Fraction(1, 3)):
            f = ElemFn.pow_q(q)
            orders = []
            refs_out = [ref_ps_compose(f, m, orders) for m in refs]
            assert orders[0] < n and orders[1:] == [n] * 3
            assert items_same_bits(ps_compose(f, batch_of(refs)), refs_out)

    @pytest.mark.parametrize("n", [6, 10])
    def test_compose_batch_across_chunks(self, n):
        # z is prepared once for the whole batch, whose chunks of the
        # product kernel split it: every model keeps the bits of its
        # composition alone
        rng = np.random.default_rng(n)
        dom = (Interval(0.0, 0.125), Interval(-0.0625, 0.0625))
        refs = [low_order_model(n)] + [
            compose_model(rng.uniform(1.0, 3.0), rng.uniform(-1.0, 1.0, (n + 1, n + 1)), 0.05, dom)
            for _ in range(36)
        ]
        u = batch_of(refs)
        f = ElemFn.pow_q(Fraction(1, 2))
        got = ps_compose(f, u)
        for b in range(u.batch):
            assert same_bits(got.coeffs[b], ps_compose(f, u[b]).coeffs[0]), b

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(1, 3)])
    def test_compose_one_item_fails_check_domain(self, q):
        rng = np.random.default_rng(3)
        n = 4
        dom = (Interval(0.0, 0.125), Interval(-0.0625, 0.0625))
        good = [compose_model(c0, rng.uniform(-1.0, 1.0, (n + 1, n + 1)), 0.05, dom) for c0 in (1.0, 2.0)]
        bad = compose_model(0.001, rng.uniform(-1.0, 1.0, (n + 1, n + 1)), 0.05, dom)
        f = ElemFn.pow_q(q)
        with pytest.raises(PositivityError) as ref_exc:
            ref_ps_compose(f, bad)
        with pytest.raises(PositivityError) as exc:
            ps_compose(f, batch_of([good[0], bad, good[1]]))
        assert str(exc.value) == str(ref_exc.value)
        assert exc.value.rng == ref_exc.value.rng
        assert items_same_bits(ps_compose(f, batch_of(good)), [ref_ps_compose(f, m) for m in good])

    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_compose_one_pow_fewer(self, monkeypatch, n):
        # the remainder reuses the order search's enclosure over the hull:
        # at the full order a model takes one iv_pow per order over the hull
        # and one per Taylor term, one fewer than evaluating the remainder's
        # derivative again
        rng = np.random.default_rng(n)
        c = IArr.exact(rng.uniform(-0.2, 0.2, (n + 1, n + 1)))
        c[0, 0] = Interval(2.0)
        u = RefModel(c, (Interval(0.0, 0.125), Interval(-0.0625, 0.0625)))
        calls = []
        real_pow = psa.iv_pow

        def counting_pow(*args):
            calls.append(args)
            return real_pow(*args)

        monkeypatch.setattr(psa, "iv_pow", counting_pow)
        for q in (Fraction(1, 3), Fraction(1, 2)):
            f = ElemFn.pow_q(q)
            orders = []
            ref = ref_ps_compose(f, u, orders)
            assert orders == [n]
            calls.clear()
            got = ps_compose(f, batch_of([u]))
            assert len(calls) == 2 * n
            assert items_same_bits(got, [ref])

    # q = 2: orders from 3 on have a zero falling factorial
    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(2)])
    def test_pow_deriv_constants(self, q):
        # one ElemFn across all calls, so the cached constants are reused;
        # orders descending first, so the cache is filled in one go
        f = ElemFn.pow_q(q)
        rng = np.random.default_rng(int(q.denominator))
        for trial in range(20):
            lo = float(rng.uniform(1e-3, 3.0))
            t = Interval(lo, lo + float(rng.uniform(0.0, 0.5)))
            orders = range(12, -1, -1) if trial == 0 else range(13)
            for i in orders:
                got, ref = f.deriv(i, t), ref_deriv(f, i, t)
                assert (got.lo, got.hi) == (ref.lo, ref.hi), (q, i, t)

    @pytest.mark.parametrize(
        "q", [Fraction(1, 2), Fraction(3, 4), Fraction(-1, 2), Fraction(1), Fraction(2), Fraction(1, 3)]
    )
    def test_deriv_table(self, q):
        # the array derivatives of a power-of-two denominator against deriv
        # (points and intervals), and at a zero base where t^q is bounded
        f = ElemFn.pow_q(q)
        rng = np.random.default_rng(int(q.denominator) + 7)
        lo = rng.uniform(1e-3, 3.0, 9)
        t = IArr(lo, lo + rng.uniform(0.0, 0.5, 9) * (np.arange(9) % 3 > 0))
        zero = IArr(np.array([0.0, 1.0]), np.array([0.5, 1.0]))
        for t, orders in [(t, range(11))] + [(zero, range(1))] * (q > 0):
            got = f.deriv_table(t, orders)
            for i in orders:
                for b in range(t.shape[0]):
                    ref = f.deriv(i, t[b].item())
                    assert (got.lo[i, b], got.hi[i, b]) == (ref.lo, ref.hi), (q, i, b)

    def test_deriv_table_raises_as_deriv(self):
        # a tiny base: t^(1/2 - i) overflows, and the table raises what
        # deriv raises
        f = ElemFn.pow_q(Fraction(1, 2))
        t = IArr(np.array([1.0, 1e-300]), np.array([1.5, 2e-300]))
        with pytest.raises(Exception) as ref_exc:
            for i in range(8):
                f.deriv(i, t[1].item())
        with pytest.raises(type(ref_exc.value), match=re.escape(str(ref_exc.value))):
            f.deriv_table(t, range(8))

    def test_pipeline_sweep_with_reference_kernels(self, monkeypatch):
        # every kernel but the convolution and the gram tables gives the
        # reference's bits; the two-stage convolution and the Hankel products
        # enclose inside the window kernels, so the residual and the gram
        # matrix lie inside the reference's, and the ranges, which take no
        # product, are equal
        u = newton_solve(GalerkinConfig(n_modes=6, p=Fraction(3, 2), tol=1e-10))
        idx = symmetric_indices(4)
        cfg = quad.QuadConfig(degree=6, grid_m=2, workers=1)

        def sweep():
            return quad.pipeline_sweep(u, Fraction(3, 2), idx, cfg)

        res, gram, ranges, stats = sweep()
        clear_tables()  # rebuilt with the reference kernels
        monkeypatch.setattr(IArr, "__mul__", ref_mul)
        monkeypatch.setattr(IArr, "__rmul__", ref_mul)
        monkeypatch.setattr(quad._Engine, "_gram_tables", window_gram_tables)
        monkeypatch.setattr(quad, "iv_conv2d_batch", ref_conv2d_items)
        monkeypatch.setattr(quad, "ConvOperand", RefOperand)
        monkeypatch.setattr(psa, "iv_conv2d_batch", ref_conv2d_items)
        monkeypatch.setitem(globals(), "iv_conv2d_full", ref_conv2d_full)  # RefModel.__mul__
        monkeypatch.setattr(PowerSeries2D, "reduce", ref_reduce_batch)
        monkeypatch.setattr(PowerSeries2D, "range", ref_range_batch)
        ref_res, ref_gram, ref_ranges, ref_stats = sweep()
        assert inside_no_wider(IArr.from_intervals([res]), IArr.from_intervals([ref_res]))
        assert inside_no_wider(gram, ref_gram)
        assert (ranges, stats) == (ref_ranges, ref_stats)


# ----------------------------------------------------------------------
# t^q from a float root and a verified defect
# ----------------------------------------------------------------------

ROOT_QS = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(3, 4), Fraction(1)]


def root_models(batch, n, seed=0):
    """Positive 2-D models of degree n with thin coefficients, half of them
    on a vanishing-edge box [0, 1/4]^2, half on the centred box
    [-1/8, 1/8]^2."""
    rng = np.random.default_rng(seed)
    decay = (np.add.outer(np.arange(n + 1), np.arange(n + 1)) + 1.0) ** 2
    c = rng.uniform(-0.5, 0.5, (batch, n + 1, n + 1)) / decay
    c[:, 0, 0] = rng.uniform(1.0, 2.0, batch)
    lo = np.where(np.arange(batch) % 2, -0.125, 0.0)
    dom = IArr(lo, lo + 0.25)
    return PowerSeries2D(IArr(c - 1e-9, c + 1e-9), (dom, dom.copy()))


class TestRoot:
    @pytest.mark.parametrize("q", ROOT_QS)
    def test_encloses_sampled_powers(self, q):
        # the model's midpoint polynomial lies in it, so its q-th power must
        # lie in the root's pointwise enclosure everywhere on the box
        n = 6
        u = root_models(6, n, seed=q.denominator)
        w, errors = psa.ps_root(u, q)
        assert errors == [None] * u.batch
        mid = u.coeffs.mid()
        rng = np.random.default_rng(3)
        for b in range(u.batch):
            a = u.domain[0].lo[b]
            for x, y in rng.uniform(a, a + 0.25, (25, 2)):
                value = sum(mid[b, i, j] * x**i * y**j for i in range(n + 1) for j in range(n + 1))
                got = only(w[b].eval_at(Interval(x), Interval(y)))
                assert got.contains(value ** float(q)), (q, b, x, y, got)

    @pytest.mark.parametrize("batch", [1, 15, 16, 17, 33])
    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(3, 4)])
    def test_items_same_bits_as_alone(self, batch, q):
        # across the product kernel's chunks of 16 models too
        for n in (6, 10):
            u = root_models(batch, n, seed=batch)
            w, _ = psa.ps_root(u, q)
            for b in range(batch):
                alone, _ = psa.ps_root(u[b], q)
                assert same_bits(w.coeffs[b], alone.coeffs[0]), (n, b)

    def test_float_root_not_positive(self, monkeypatch):
        # a float root whose range reaches 0 fails its own model with the
        # PositivityError of that range; the others keep their bits
        u = root_models(3, 6, seed=9)
        real = psa._float_root

        def negated_middle(c, q):
            p = real(c, q)
            if len(p) == 3:
                p[1] = -p[1]
            return p

        ref = [psa.ps_root(u[b], Fraction(1, 2))[0] for b in (0, 2)]
        monkeypatch.setattr(psa, "_float_root", negated_middle)
        w, errors = psa.ps_root(u, Fraction(1, 2))
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], PositivityError)
        assert errors[1].rng.hi < 0.0
        assert re.fullmatch(r"float root range \[.*\] not strictly positive for t\^1/2", str(errors[1]))
        assert same_bits(w.coeffs[0], ref[0].coeffs[0]) and same_bits(w.coeffs[2], ref[1].coeffs[0])

    def test_negative_constant_term(self):
        # the model's range is tested before the float root, whose square
        # root of a negative constant term is NaN: a PositivityError of the
        # model's range, not an IntervalDomainError of the root
        u = root_models(3, 6, seed=5)
        c = u.coeffs.copy()
        c.lo[1, 0, 0], c.hi[1, 0, 0] = -1.5, -1.5 + 1e-9
        neg = PowerSeries2D(c, u.domain)
        w, errors = psa.ps_root(neg, Fraction(1, 2))
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], PositivityError) and errors[1].rng.hi < 0.0
        bad = neg.range()
        assert (errors[1].rng.lo, errors[1].rng.hi) == (bad.lo[1], bad.hi[1])
        assert str(errors[1]) == f"model range {errors[1].rng} not strictly positive for t^1/2"
        for b in (0, 2):
            assert same_bits(w.coeffs[b], psa.ps_root(u[b], Fraction(1, 2))[0].coeffs[0])

    @pytest.mark.parametrize("lo, hi", [(math.nan, math.nan), (1.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_range_fails_its_model(self, lo, hi):
        # a range that is not finite fails its own model only, with an
        # IntervalDomainError, whatever else holds of it
        u = root_models(3, 6, seed=6)
        rng = u.range()
        rng.lo[1], rng.hi[1] = lo, hi
        w, errors = psa.ps_root(u, Fraction(1, 2), rng)
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], IntervalDomainError)
        assert str(errors[1]) == f"non-finite model range [{lo}, {hi}] for t^1/2"
        for b in (0, 2):
            assert same_bits(w.coeffs[b], psa.ps_root(u[b], Fraction(1, 2))[0].coeffs[0])

    def test_non_finite_root(self):
        # u = 1e-300 + x on [0, 1/4]^2: its Taylor coefficients of sqrt
        # overflow from the second on, and only that model fails, with an
        # IntervalDomainError
        u = root_models(3, 6, seed=4)
        c = u.coeffs.copy()
        c[0] = IArr.zeros((7, 7))
        c.lo[0, 0, 0] = c.hi[0, 0, 0] = 1e-300
        c.lo[0, 1, 0] = c.hi[0, 1, 0] = 1.0
        tiny = PowerSeries2D(c, u.domain)
        assert tiny.range().lo[0] > 0.0
        w, errors = psa.ps_root(tiny, Fraction(1, 2))
        assert errors[1] is None and errors[2] is None
        assert isinstance(errors[0], IntervalDomainError) and str(errors[0]) == "non-finite t^1/2 root"
        assert same_bits(w.coeffs[2], psa.ps_root(u[2], Fraction(1, 2))[0].coeffs[0])
