"""Taylor-model arithmetic: worked golden cases and containment properties."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ivarray import (
    MIDS,
    iarrs,
    model_shapes,
    ref_conv2d_full,
    ref_corr2d,
    ref_mul,
    same_bits,
)

from powcert import psa, quad
from powcert.errors import PositivityError, UsageError
from powcert.galerkin import GalerkinConfig, newton_solve
from powcert.interval import Interval, iv_pow
from powcert.ivarray import IArr, iv_outer
from powcert.psa import ElemFn, PowerSeries1D, PowerSeries2D, ps_compose
from powcert.spectral import symmetric_indices

ULP = 2.0**-52
D01 = Interval(0.0, 0.1)


def series_u():
    return PowerSeries1D.from_floats([1.0, 2.0, -3.0], D01)


def series_v():
    return PowerSeries1D.from_floats([1.0, -1.0, 1.0], D01)


def tensor(a: PowerSeries1D, b: PowerSeries1D) -> PowerSeries2D:
    """Outer product of an x-series and a y-series."""
    return PowerSeries2D(iv_outer(a.coeffs, b.coeffs), (a.domain, b.domain))


def coeff_close(model, idx, lo, hi, ulps=8):
    c = model.coeffs[idx].item()
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
        c2 = r.coeffs[2].item()
        assert c2.lo <= -5.0 and c2.hi >= float(Fraction(-143, 36))

    def test_range_of_u(self):
        r = series_u().range()
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
        c = v.coeffs[2].item()
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
                assert v.eval_at(Interval(x)).contains(val)


class TestIdentities:
    def test_add_zero_series(self):
        u = series_u()
        z = PowerSeries1D.from_floats([0.0, 0.0, 0.0], D01)
        s = u + z
        for i in range(3):
            assert s.coeffs[i].item().contains(u.coeffs[i].item())

    def test_mul_one_series(self):
        u = series_u()
        one = PowerSeries1D.from_floats([1.0, 0.0, 0.0], D01)
        m = u * one
        for i in range(3):
            c = m.coeffs[i].item()
            r = u.coeffs[i].item()
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
        assert c.range().contains(2.5)

    def test_identity_on_symmetric_domain(self):
        x = PowerSeries1D.from_floats([0.0, 1.0], Interval(-1.0, 1.0))
        r = x.range()
        assert r.contains(Interval(-1, 1))
        assert r.width <= 2.0 + 4 * ULP


class TestCompose:
    def test_identity_exponent(self):
        u = series_u()
        r = ps_compose(ElemFn.pow_q(Fraction(1, 1)), u)
        xs = np.linspace(0, 0.1, 30)
        for x in xs:
            val = 1.0 + 2.0 * x - 3.0 * x * x
            assert r.eval_at(Interval(x)).contains(val)

    def test_sqrt_of_constant_four(self):
        u = PowerSeries1D.from_floats([4.0, 0.0, 0.0], D01)
        r = ps_compose(ElemFn.pow_q(Fraction(1, 2)), u)
        assert r.eval_at(Interval(0.05)).contains(2.0)

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
            u = PowerSeries1D.from_floats([c0, c1, c2, 0.0, 0.0], Interval(-0.2, 0.2))
            if u.range().lo <= 0.05:
                continue
            q = Fraction(1, 2)
            w = ps_compose(ElemFn.pow_q(q), u)
            target = iv_pow(u.range(), q)
            got = w.range()
            # the composed range sits inside the direct range inflated by the
            # quadratic-and-higher Taylor contributions over the domain
            dmag = u.domain.mag
            slack = 0.0
            for i in range(2, 5):
                slack += w.coeffs[i].item().mag * dmag**i
            slack = 4.0 * slack + 1e-9
            assert got.lo >= target.lo - slack
            assert got.hi <= target.hi + slack

    def test_sampled_containment_exp_sin(self):
        rng = np.random.default_rng(2)
        for tag in ("exp", "sin"):
            f = ElemFn(tag)
            npfun = {"exp": np.exp, "sin": np.sin}[tag]
            for _ in range(25):
                coeffs = rng.uniform(-0.8, 0.8, 6)
                dom = Interval(-0.3, 0.3)
                u = PowerSeries1D.from_floats(coeffs, dom)
                w = ps_compose(f, u)
                for x in rng.uniform(dom.lo, dom.hi, 20):
                    val = float(npfun(np.polyval(coeffs[::-1], x)))
                    assert w.eval_at(Interval(x)).contains(val)


class TestTwoDimensional:
    def test_tensor_bilinearity(self):
        a = PowerSeries1D.from_floats([1.0, 2.0, 0.5], D01)
        b = PowerSeries1D.from_floats([-1.0, 3.0, 0.25], D01)
        t = tensor(a, b)
        for i in range(3):
            for j in range(3):
                pa = a.coeffs[i].item()
                pb = b.coeffs[j].item()
                assert t.coeffs[i, j].item().contains(pa.mid * pb.mid)

    def test_xy_range_unit_square(self):
        one = Interval(0.0, 1.0)
        x = PowerSeries1D.from_floats([0.0, 1.0], one)
        y = PowerSeries1D.from_floats([0.0, 1.0], one)
        t = tensor(x, y)
        r = t.range()
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
                assert P.eval_at(Interval(x), Interval(y)).contains(va * vb)

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
            assert W.eval_at(Interval(x), Interval(y)).contains(float(val))

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
            assert V.eval_at(Interval(x), Interval(y)).contains(val)


# ----------------------------------------------------------------------
# reference kernels: the earlier IArr-operator forms of Horner, reduce and
# range, kept to check that the current ones give the same bits
# ----------------------------------------------------------------------

def ref_horner_rows(rows: IArr, x: Interval) -> IArr:
    m = rows.shape[0] - 1
    acc = rows[m]
    for i in range(m - 1, -1, -1):
        acc = acc * x + rows[i]
    return acc


def ref_reduce(self, n):
    mx = self.coeffs.shape[0] - 1
    my = self.coeffs.shape[1] - 1
    if n >= max(mx, my):
        return self
    dx, dy = self.domain
    work = self.coeffs
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
    return PowerSeries2D(work, self.domain)


def ref_range(self):
    dx, dy = self.domain
    rows = ref_horner_rows(IArr(self.coeffs.lo.T.copy(), self.coeffs.hi.T.copy()), dy)
    return psa._horner_scalar(rows, dx)


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


def ref_ps_compose(f, u):
    """ps_compose as it was, evaluating the chosen remainder derivative over
    the hull a second time."""
    rng = u.range()
    u0 = u.const_coeff().mid
    hull = Interval.hull_of(Interval(u0), rng)
    f.check_domain(hull)
    n = u.degree
    z = u.sub_const(u0)
    rz = z.range().mag
    u0iv = Interval(u0)
    m_best, best = 1, math.inf
    inv_fact = 1.0
    for m in range(1, n + 1):
        inv_fact /= m
        est = f.deriv(m, hull).mag * inv_fact * rz**m
        if est <= best:
            m_best, best = m, est
    inv_fact = Fraction(1)
    taylor = [f.deriv(0, u0iv)]
    for i in range(1, m_best):
        inv_fact /= i
        taylor.append(f.deriv(i, u0iv) * Interval.from_fraction(inv_fact))
    c_rem = f.deriv(m_best, hull) * Interval.from_fraction(inv_fact / m_best)
    result = u.const_like(taylor[0])
    zp = z
    if m_best >= 2:
        result = result + zp.scale(taylor[1])
        for i in range(2, m_best):
            zp = zp * z
            result = result + zp.scale(taylor[i])
        zp = zp * z
    return result + zp.scale(c_rem)


# domains: a vanishing-edge box [0, w] (either zero), a centred box, or any
DOMAINS = st.one_of(
    st.builds(lambda w, z: Interval(z, w), st.floats(2.0**-12, 0.5), st.sampled_from([0.0, -0.0])),
    st.builds(lambda h: Interval(-h, h), st.floats(2.0**-12, 0.5)),
    st.builds(lambda a, b: Interval(min(a, b), max(a, b)), MIDS, MIDS),
)


class TestSameBitsAsReference:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), model_shapes(), DOMAINS, DOMAINS)
    def test_reduce_product_shape(self, data, n, dx, dy):
        # a product before reduction: (2n+1)^2 coefficients down to degree n
        c = data.draw(iarrs((2 * n + 1, 2 * n + 1)))
        model = PowerSeries2D(c, (dx, dy))
        got, ref = model.reduce(n), ref_reduce(model, n)
        assert same_bits(got.coeffs, ref.coeffs)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(2, 8), st.integers(2, 8), DOMAINS, DOMAINS)
    def test_reduce_rectangular(self, data, mx, my, dx, dy):
        c = data.draw(iarrs((mx + 1, my + 1)))
        n = data.draw(st.integers(1, max(mx, my)))
        model = PowerSeries2D(c, (dx, dy))
        assert same_bits(model.reduce(n).coeffs, ref_reduce(model, n).coeffs)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), model_shapes(), DOMAINS, DOMAINS)
    def test_range_and_rows(self, data, n, dx, dy):
        c = data.draw(iarrs((n + 1, n + 1)))
        model = PowerSeries2D(c, (dx, dy))
        got = model.range()
        ref = ref_range(model)
        assert (got.lo, got.hi) == (ref.lo, ref.hi)
        rows = psa._horner_rows(c.lo, c.hi, dx)
        assert same_bits(IArr(*rows), ref_horner_rows(c, dx))

    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_compose_one_pow_fewer(self, monkeypatch, n):
        # the remainder reuses the order search's enclosure over the hull
        rng = np.random.default_rng(n)
        c = IArr.exact(rng.uniform(-0.2, 0.2, (n + 1, n + 1)))
        c[0, 0] = Interval(2.0)
        u = PowerSeries2D(c, (Interval(0.0, 0.125), Interval(-0.0625, 0.0625)))
        calls = []
        real_pow = psa.iv_pow

        def counting_pow(*args):
            calls.append(args)
            return real_pow(*args)

        monkeypatch.setattr(psa, "iv_pow", counting_pow)
        f = ElemFn.pow_q(Fraction(1, 2))
        got = ps_compose(f, u)
        n_new = len(calls)
        ref = ref_ps_compose(f, u)
        assert n_new == len(calls) - n_new - 1
        assert same_bits(got.coeffs, ref.coeffs)

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

    def test_pipeline_sweep_with_reference_kernels(self, monkeypatch):
        u = newton_solve(GalerkinConfig(n_modes=6, p=Fraction(3, 2), tol=1e-10))
        idx = symmetric_indices(4)
        cfg = quad.QuadConfig(degree=6, grid_m=2, workers=1)

        def sweep():
            res, gram, ranges, stats = quad.pipeline_sweep(u, Fraction(3, 2), idx, cfg)
            return (res.lo, res.hi), gram.lo.tobytes(), gram.hi.tobytes(), ranges, stats

        new = sweep()
        monkeypatch.setattr(IArr, "__mul__", ref_mul)
        monkeypatch.setattr(IArr, "__rmul__", ref_mul)
        monkeypatch.setattr(quad, "iv_corr2d", ref_corr2d)
        monkeypatch.setattr(quad, "iv_conv2d_full", ref_conv2d_full)
        monkeypatch.setattr(psa, "iv_conv2d_full", ref_conv2d_full)
        monkeypatch.setattr(PowerSeries2D, "reduce", ref_reduce)
        monkeypatch.setattr(PowerSeries2D, "range", ref_range)
        monkeypatch.setattr(quad, "ps_compose", ref_ps_compose)
        monkeypatch.setattr(ElemFn, "deriv", ref_deriv)
        assert sweep() == new
