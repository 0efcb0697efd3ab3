"""Verified quadrature: monomial order, rectangle models, oracle containment."""

import math
import multiprocessing
import subprocess
import sys
import textwrap
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from test_ivarray import same_bits

from powcert import quad
from powcert.errors import IntervalDomainError, PositivityError, UsageError
from powcert.galerkin import FourierApproximation, odd_modes
from powcert.interval import Interval, iv_pow
from powcert.ivarray import IArr
from powcert.psa import PowerSeries2D
from powcert.quad import (
    MonomialTerm,
    QuadConfig,
    Rect,
    RectClass,
    Subdivision,
    gram_from_tables,
    gram_indices_freqs,
    integral_power,
    integrate_monomial,
    pipeline_sweep,
    sup_weight,
)

mpmath.mp.dps = 30


def mp_eta(coeffs_dict):
    def f(x, y):
        return sum(
            a * mpmath.sin(i * mpmath.pi * x) * mpmath.sin(j * mpmath.pi * y)
            for (i, j), a in coeffs_dict.items()
        )
    return f


def fourier_from_dict(n_max, coeffs_dict):
    modes = list(odd_modes(n_max))
    c = np.zeros((len(modes), len(modes)))
    for (i, j), a in coeffs_dict.items():
        c[modes.index(i), modes.index(j)] = a
    return FourierApproximation(n_max, c)


def one_rect_engine(u, degree, q=Fraction(1, 2), **cfg):
    """The sweep engine of integral_power(u, None, q), to run on single
    rectangles through sweep or reduced_models."""
    req = quad._Request(powers=(None,))
    return quad._Engine(quad._EtaFourier(u), q, QuadConfig(degree=degree, **cfg), req)


def with_reduced_model(engine, model):
    """The engine with a given reduced model (a batch of one) on every
    rectangle, in place of the one it builds from eta."""
    engine.reduced_models = lambda rects: model[[0] * len(rects)]
    return engine


def reduced_model(engine, rect):
    """The engine's reduced model of eta on one rectangle, a batch of one."""
    return engine.reduced_models([rect])


def sweep_outputs(u, indices=((1, 1),), cfg=None, **budgets):
    """(res_norm, gram, ranges, stats) of the pipeline sweep at p = 3/2."""
    return pipeline_sweep(u, Fraction(3, 2), list(indices), cfg, **budgets)


class TestRectangles:
    def test_classification(self):
        sub = Subdivision(4)
        rects = sub.rects()
        classes = [r.cls for r in rects]
        assert classes.count(RectClass.S11) == 1
        assert classes.count(RectClass.S01) == 3
        assert classes.count(RectClass.S10) == 3
        assert classes.count(RectClass.S00) == 9

    def test_bisect_longer_edge_and_reclass(self):
        r = Rect.make(0, Fraction(1, 2), 0, Fraction(1, 4))
        assert r.cls is RectClass.S11
        a, b = r.bisect()  # x is longer
        assert a.x1 == Fraction(1, 4) and b.x0 == Fraction(1, 4)
        assert a.cls is RectClass.S11
        assert b.cls is RectClass.S01  # detached from the left edge
        assert a.depth == b.depth == 1

    def test_tie_splits_x(self):
        r = Rect.make(0, Fraction(1, 4), 0, Fraction(1, 4))
        a, b = r.bisect()
        assert a.x1 == Fraction(1, 8)
        assert a.y1 == Fraction(1, 4)

    def test_union_covers_quadrant(self):
        sub = Subdivision(3)
        area = sum(r.area for r in sub.rects())
        assert abs(area - 0.25) < 1e-15


class TestMonomial:
    def test_interval_order_example(self):
        r = Rect.make(-1, 1, 0, 1, rect_cls=RectClass.S00)
        t = MonomialTerm(Interval(0.8, 1.0), Fraction(1), Fraction(0))
        v = integrate_monomial(t, r)
        assert v.contains(Interval(-0.1, 0.1))
        assert v.width <= 0.2 + 1e-12

    def test_unit_constant(self):
        r = Rect.make(0, 1, 0, 1)
        v = integrate_monomial(MonomialTerm(Interval(1.0), Fraction(0), Fraction(0)), r)
        assert v.contains(1.0)

    def test_half_powers(self):
        r = Rect.make(0, 1, 0, 1)
        v = integrate_monomial(
            MonomialTerm(Interval(1.0), Fraction(1, 2), Fraction(1, 2)), r
        )
        assert v.contains(4.0 / 9.0)
        assert v.width < 1e-14

    def test_fractional_exponent_negative_domain_rejected(self):
        r = Rect.make(-1, 1, 0, 1, rect_cls=RectClass.S00)
        with pytest.raises(UsageError):
            integrate_monomial(MonomialTerm(Interval(1.0), Fraction(1, 2), Fraction(0)), r)

    def test_integrability_precondition(self):
        with pytest.raises(UsageError):
            MonomialTerm(Interval(1.0), Fraction(-3, 2), Fraction(0))


class TestEncloseOnRect:
    """The engine's reduced model of eta on one rectangle: eta divided by
    the class monomial, expanded at the class point (corner / edge midpoint /
    center), in local coordinates."""

    def test_center_value(self):
        u = fourier_from_dict(1, {(1, 1): 1.0})
        rc = Rect.make(Fraction(1, 4), Fraction(3, 4), Fraction(1, 4), Fraction(3, 4))
        m = reduced_model(one_rect_engine(u, 6), rc)
        assert m.const_coeff()[0].item().contains(1.0)

    def test_corner_cross_derivative(self):
        # the x*y coefficient of eta at the corner is the constant of eta / (x y)
        u = fourier_from_dict(1, {(1, 1): 1.0})
        rs = Rect.make(0, 1, 0, 1)
        m = reduced_model(one_rect_engine(u, 8), rs)
        assert m.coeffs[0, 0, 0].item().contains(math.pi**2)

    def test_sampled_containment(self):
        rng = np.random.default_rng(0)
        u = fourier_from_dict(3, {(1, 1): 2.0, (1, 3): -0.3, (3, 3): 0.1})
        engine = one_rect_engine(u, 8)
        for rect in (
            Rect.make(0, Fraction(1, 8), 0, Fraction(1, 8)),
            Rect.make(Fraction(1, 8), Fraction(1, 4), 0, Fraction(1, 8)),
            Rect.make(Fraction(1, 4), Fraction(3, 8), Fraction(1, 4), Fraction(3, 8)),
        ):
            model = reduced_model(engine, rect)
            cx = rect.expansion_x()
            cy = rect.expansion_y()
            for _ in range(40):
                x = rng.uniform(float(rect.x0), float(rect.x1))
                y = rng.uniform(float(rect.y0), float(rect.y1))
                val = u.eval(x, y)
                tx, ty = Interval(x - float(cx)), Interval(y - float(cy))
                got = model.eval_at(tx, ty)[0].item()
                if rect.van_x:
                    got = got * tx
                if rect.van_y:
                    got = got * ty
                assert got.lo - 1e-12 <= val <= got.hi + 1e-12


class TestIntegrateRect:
    """One rectangle through the engine's sweep, from a given reduced
    model: t^q composition, product with xi, corner integration."""

    def test_xy_analytic(self):
        # eta = x y on [0, 1]^2: reduced model 1, integral of (x y)^(1/2) = 4/9
        u = fourier_from_dict(1, {(1, 1): 1.0})
        dom = (Interval(0, 1), Interval(0, 1))
        engine = with_reduced_model(
            one_rect_engine(u, 4), PowerSeries2D.constant(Interval(1.0), 4, dom)
        )
        v = engine.sweep([Rect.make(0, 1, 0, 1)])[0].powers[0]
        assert v.contains(4.0 / 9.0)

    def test_zero_xi(self):
        u = fourier_from_dict(1, {(1, 1): 1.0})
        zero = fourier_from_dict(1, {(1, 1): 0.0})
        v = integral_power(u, zero, Fraction(1, 2), QuadConfig(degree=4, grid_m=2))
        assert v.contains(0.0) and v.width < 1e-12

    def test_positivity_signal_carries_rect(self):
        u = fourier_from_dict(1, {(1, 1): 1.0})
        cf = IArr.zeros((4, 4))
        cf[0, 0] = Interval(-1.0)  # negative reduced model
        model = PowerSeries2D(cf, (Interval(0, 1), Interval(0, 1)))
        engine = with_reduced_model(one_rect_engine(u, 3, max_depth=0), model)
        with pytest.raises(PositivityError) as exc:
            engine.sweep([Rect.make(0, 1, 0, 1)])
        assert exc.value.rect is not None


class TestIntegralPower:
    def test_phi11_three_halves_oracle(self):
        u = fourier_from_dict(1, {(1, 1): 1.0})
        val = integral_power(u, u, Fraction(1, 2), QuadConfig(degree=6, grid_m=4))
        oracle = float(
            mpmath.quad(lambda x: mpmath.sin(mpmath.pi * x) ** mpmath.mpf(1.5), [0, 1])
            ** 2
        )
        assert val.contains(oracle)
        assert val.width < 5e-3

    def test_q_one_matches_trig(self):
        u = fourier_from_dict(1, {(1, 1): 1.0})
        val = integral_power(u, u, Fraction(1), QuadConfig(degree=6, grid_m=2))
        assert val.contains(0.25)  # int phi11^2 = 1/4

    def test_scaling_homogeneity(self):
        u = fourier_from_dict(1, {(1, 1): 1.0})
        u4 = fourier_from_dict(1, {(1, 1): 4.0})
        cfg = QuadConfig(degree=6, grid_m=4)
        a = integral_power(u, None, Fraction(1, 2), cfg)
        b = integral_power(u4, None, Fraction(1, 2), cfg)
        # (4 eta)^(1/2) = 2 eta^(1/2)
        scaled = a * Interval(2.0)
        assert b.overlaps(scaled)

    def test_sweep_counts_whole_square(self):
        # one quadrant is swept, but the counts cover all four
        u = fourier_from_dict(1, {(1, 1): 5.0})
        _, _, _, stats = pipeline_sweep(
            u, Fraction(3, 2), [(1, 1)], QuadConfig(degree=6, grid_m=2)
        )
        assert stats == {"rects": 16, "over_budget": 0}

    def test_randomized_oracle_containment(self):
        rng = np.random.default_rng(7)
        cfg = QuadConfig(degree=6, grid_m=4)
        for trial in range(3):
            base = rng.uniform(1.0, 2.0)
            d = {
                (1, 1): base,
                (1, 3): rng.uniform(-0.05, 0.05) * base,
                (3, 1): rng.uniform(-0.05, 0.05) * base,
            }
            eta = fourier_from_dict(3, d)
            val = integral_power(eta, None, Fraction(1, 2), cfg)
            f = mp_eta(d)
            oracle = float(mpmath.quad(lambda x, y: f(x, y) ** mpmath.mpf(0.5), [0, 1], [0, 1]))
            assert val.contains(oracle), (trial, val, oracle)

    def test_refinement_improves_widths(self):
        u = fourier_from_dict(3, {(1, 1): 1.5, (3, 3): 0.05})
        coarse = integral_power(u, None, Fraction(1, 2), QuadConfig(degree=4, grid_m=2))
        finer_grid = integral_power(u, None, Fraction(1, 2), QuadConfig(degree=4, grid_m=4))
        finer_deg = integral_power(u, None, Fraction(1, 2), QuadConfig(degree=6, grid_m=2))
        assert finer_grid.width <= coarse.width
        assert finer_deg.width <= coarse.width
        assert coarse.overlaps(finer_grid) and coarse.overlaps(finer_deg)


class TestResidual:
    def test_single_mode_oracle(self):
        a = 5.0
        u = fourier_from_dict(1, {(1, 1): a})
        res = sweep_outputs(u, cfg=QuadConfig(degree=6, grid_m=4))[0]

        def integrand(x, y):
            phi = mpmath.sin(mpmath.pi * x) * mpmath.sin(mpmath.pi * y)
            v = -2 * mpmath.pi**2 * a * phi + (a * phi) ** mpmath.mpf(1.5)
            return v * v

        oracle = float(mpmath.sqrt(mpmath.quad(integrand, [0, 1], [0, 1])))
        assert res.contains(oracle)
        assert res.width < 0.1

    def test_zero_function_is_not_positive(self):
        # the sweep has no zero-function shortcut: a zero u_hat fails the
        # positivity check like any u_hat not verifiably positive inside
        u = fourier_from_dict(1, {(1, 1): 0.0})
        with pytest.raises(PositivityError):
            sweep_outputs(u, cfg=QuadConfig(degree=4, grid_m=2, max_depth=2))


def constant_weight_gram(c: Interval, p: Fraction, indices) -> IArr:
    """The gram matrix of the constant weight p c^(p-1): its cosine table is
    T[0, 0] = c^(p-1), the integral of c^(p-1) over the square, and 0 at
    every other (even) frequency pair."""
    freqs = gram_indices_freqs(indices)
    t = IArr.zeros((len(freqs), len(freqs)))
    t[0, 0] = iv_pow(c, p - 1)
    return gram_from_tables(t, freqs, indices, p)


class TestGramAndRanges:
    def test_constant_weight_diagonal(self):
        G = constant_weight_gram(Interval(4.0), Fraction(3, 2), [(1, 1), (1, 3)])
        expect = 1.5 * 2.0 / 4.0
        assert G[0, 0].item().contains(expect)
        assert G[1, 1].item().contains(expect)
        assert G[0, 1].item().contains(0.0)

    def test_mixed_parity_indices_rejected(self):
        # phi_21 is odd about x = 1/2: the frequency |2 - 1| = 1 has no
        # one-quadrant reduction (the true off-diagonal entry is 0)
        u = fourier_from_dict(1, {(1, 1): 1.0})
        with pytest.raises(UsageError):
            sweep_outputs(u, [(1, 1), (2, 1)], QuadConfig(degree=4, grid_m=2))

    def test_symmetry_overlap(self):
        u = fourier_from_dict(3, {(1, 1): 2.0, (3, 3): 0.02})
        G = sweep_outputs(u, [(1, 1), (1, 3), (3, 1)], QuadConfig(degree=5, grid_m=3))[1]
        for i in range(3):
            for j in range(3):
                assert G[i, j].item().overlaps(G[j, i].item())

    def test_sup_weight_formula(self):
        u = fourier_from_dict(1, {(1, 1): 9.0})
        ranges = sweep_outputs(u, cfg=QuadConfig(degree=6, grid_m=4))[2]
        sw = sup_weight(Fraction(3, 2), ranges)
        m = Interval(max(ranges[3], 0.0), max(ranges[1], abs(ranges[0])))
        direct = Interval(1.5) * iv_pow(m, Fraction(1, 2))
        assert abs(sw.hi - direct.hi) < 1e-12
        assert sw.contains(1.5 * 3.0)  # p * sqrt(9)

    def test_range_bounds_sane(self):
        u = fourier_from_dict(1, {(1, 1): 9.0})
        mn, mx, wit, clo, chi = sweep_outputs(u, cfg=QuadConfig(degree=6, grid_m=4))[2]
        assert mn <= 0.0 <= wit <= 9.0 + 1e-9
        # best interior cell center at grid 4 sits at (7/16, 7/16)
        peak_cell = 9.0 * math.sin(7 * math.pi / 16) ** 2
        assert abs(clo - peak_cell) < 1e-6 and abs(chi - peak_cell) < 1e-6
        assert clo <= chi
        assert mx >= 9.0


class TestSpecExamples:
    def test_integrate_rect_s00_cell_oracle(self):
        # one interior cell of phi11^(3/2) against an adaptive oracle
        u = fourier_from_dict(1, {(1, 1): 1.0})
        rect = Rect.make(Fraction(1, 4), Fraction(3, 8), Fraction(1, 4), Fraction(3, 8))
        val = one_rect_engine(u, 8).sweep([rect])[0].powers[0]
        mpmath.mp.dps = 20
        oracle = float(
            mpmath.quad(
                lambda x, y: mpmath.sqrt(
                    mpmath.sin(mpmath.pi * x) * mpmath.sin(mpmath.pi * y)
                ),
                [0.25, 0.375],
                [0.25, 0.375],
            )
        )
        assert val.contains(oracle)
        assert val.width < 1e-8

    def test_monotone_improvement_randomized(self):
        # Refinement comparisons are made in the contraction regime (cells
        # small enough that the local Taylor variable has range < 1); on
        # coarser grids a *lower* degree can win because its positivity
        # failures force extra bisection.
        rng = np.random.default_rng(11)
        improved = 0
        total = 0
        q = Fraction(1, 2)
        for case in range(6):
            base = rng.uniform(1.0, 2.0)
            d = {(1, 1): base, (3, 1): rng.uniform(-0.05, 0.05) * base}
            eta = fourier_from_dict(3, d)
            m8 = integral_power(eta, None, q, QuadConfig(degree=4, grid_m=8, workers=4))
            m16 = integral_power(eta, None, q, QuadConfig(degree=4, grid_m=16, workers=4))
            assert m8.overlaps(m16)
            total += 1
            improved += m16.width <= m8.width
            if case < 2:  # degree raise, fine grid (slower, sample two cases)
                d6 = integral_power(eta, None, q, QuadConfig(degree=6, grid_m=16, workers=4))
                assert m16.overlaps(d6)
                total += 1
                improved += d6.width <= m16.width
        assert improved >= 0.9 * total


class TestSweepEngine:
    def test_factor_tables_shared_between_axes(self, monkeypatch):
        # the x and y tables of one interval are one table: at grid_m = 2
        # the sweep needs three sine tables ([0, 1/4] reduced and full,
        # [1/4, 1/2] full) and two cosine tables, not one set per axis
        builds = {"sin": 0, "cos": 0}
        real_sin, real_cos = quad._sine_factor_matrix, quad._cosine_factor_matrix

        def count_sin(*args, **kw):
            builds["sin"] += 1
            return real_sin(*args, **kw)

        def count_cos(*args, **kw):
            builds["cos"] += 1
            return real_cos(*args, **kw)

        monkeypatch.setattr(quad, "_sine_factor_matrix", count_sin)
        monkeypatch.setattr(quad, "_cosine_factor_matrix", count_cos)
        u = fourier_from_dict(3, {(1, 1): 5.0, (3, 1): 0.1})
        pipeline_sweep(u, Fraction(3, 2), [(1, 1), (1, 3)], QuadConfig(degree=6, grid_m=2))
        assert builds == {"sin": 3, "cos": 2}

    @pytest.mark.parametrize("table", ["_sine_factor_matrix", "_cosine_factor_matrix"])
    def test_non_finite_factor_table_names_rectangle(self, monkeypatch, table):
        real = getattr(quad, table)

        def poisoned(*args, **kw):
            out = real(*args, **kw)
            out.hi[-1, 0] = math.nan
            return out

        monkeypatch.setattr(quad, table, poisoned)
        u = fourier_from_dict(3, {(1, 1): 5.0, (3, 1): 0.1})
        # every rectangle fails; forked workers report the first in
        # rectangle order, as the serial sweep does
        for workers in (1, 2):
            cfg = QuadConfig(degree=6, grid_m=2, workers=workers)
            with pytest.raises(IntervalDomainError, match=r"non-finite .* on S11 \[0,1/4\]x\[0,1/4\]"):
                pipeline_sweep(u, Fraction(3, 2), [(1, 1), (1, 3)], cfg)

    def test_over_budget_leaf_evaluated_once(self, eval_log):
        # at max_depth = 0 every base rectangle is over an unreachable
        # budget: it is evaluated once and kept, flagged
        u = fourier_from_dict(3, {(1, 1): 5.0, (3, 1): 0.1})
        cfg = QuadConfig(degree=6, grid_m=3, max_depth=0, workers=1)
        tight = sweep_digest(u, cfg, res_width=1e-300)
        assert len(eval_log) == 9 and len(set(eval_log)) == 9
        free = sweep_digest(u, cfg)
        assert tight[:-1] == free[:-1]
        assert tight[-1] == {"rects": 36, "over_budget": 36}


@pytest.fixture
def eval_log(monkeypatch):
    """The rectangles _Engine.eval_level evaluates, in this process."""
    evals = []
    real = quad._Engine.eval_level

    def logging_eval(self, rects):
        evals.extend(rects)
        return real(self, rects)

    monkeypatch.setattr(quad._Engine, "eval_level", logging_eval)
    return evals


def sweep_digest(u, cfg, **budgets):
    """Residual, gram lo/hi bytes, ranges and stats of one pipeline sweep."""
    res, gram, ranges, stats = pipeline_sweep(u, Fraction(3, 2), [(1, 1), (1, 3), (3, 1)], cfg, **budgets)
    return (res.lo, res.hi), gram.lo.tobytes(), gram.hi.tobytes(), ranges, stats


class TestWorkerProcesses:
    """Forked workers give the bits of the serial sweep, and their errors
    reach the caller as the serial sweep raises them."""

    def test_pipeline_sweep_same_bits(self):
        u = fourier_from_dict(5, {(1, 1): 5.0, (3, 1): 0.2, (1, 5): -0.1})
        digests = [
            sweep_digest(u, QuadConfig(degree=6, grid_m=3, workers=w), res_width=200.0, gram_width=1e-4)
            for w in (1, 2, 3)
        ]
        assert digests[0][-1]["rects"] > 36  # the budgets bisect
        assert digests[0] == digests[1] == digests[2]

    def test_entry_points_same_bits(self):
        u = fourier_from_dict(3, {(1, 1): 2.0, (3, 1): 0.05})

        def results(workers):
            cfg = QuadConfig(degree=5, grid_m=3, workers=workers)
            res, gram, ranges, stats = sweep_outputs(u, [(1, 1), (1, 3)], cfg)
            vals = [
                integral_power(u, None, Fraction(1, 2), cfg),
                integral_power(u, u, Fraction(1, 2), cfg, width_target=1e-6),
                integral_power(u, 4.0, Fraction(1, 2), cfg),
                res,
            ]
            return [(v.lo, v.hi) for v in vals], gram.lo.tobytes(), gram.hi.tobytes(), ranges, stats

        assert results(1) == results(2)

    def test_positivity_error_at_max_depth(self):
        # u < 0 near (1/6, 1/2): the first failing rectangle in order raises
        u = fourier_from_dict(3, {(1, 1): 1.0, (3, 3): 0.8})
        errors = []
        for workers in (1, 2):
            cfg = QuadConfig(degree=6, grid_m=4, max_depth=0, workers=workers)
            with pytest.raises(PositivityError) as exc:
                sweep_outputs(u, cfg=cfg)
            errors.append(exc.value)
        serial, forked = errors
        assert serial.rect is not None and serial.rect != Rect.make(0, Fraction(1, 8), 0, Fraction(1, 8))
        assert str(forked) == str(serial)
        assert forked.rect == serial.rect
        assert (forked.rng.lo, forked.rng.hi) == (serial.rng.lo, serial.rng.hi)

    def test_serial_without_fork(self, monkeypatch, eval_log):
        # evaluations made in a forked worker are not logged here
        u = fourier_from_dict(3, {(1, 1): 5.0, (3, 1): 0.1})
        cfg = QuadConfig(degree=6, grid_m=2, workers=2)
        forked = sweep_digest(u, cfg)
        assert eval_log == []
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert sweep_digest(u, cfg) == forked
        assert len(eval_log) == 4

    def test_usage_error_crosses_process(self, monkeypatch):
        def refuse(*args, **kw):
            raise UsageError("refused composition")

        monkeypatch.setattr(quad, "ps_compose", refuse)
        u = fourier_from_dict(1, {(1, 1): 1.0})
        with pytest.raises(UsageError, match="^refused composition$"):
            integral_power(u, None, Fraction(1, 2), QuadConfig(degree=4, grid_m=2, workers=2))


    def test_failing_sweeps_end(self):
        # the first error ends the sweep while the other worker may still be
        # sending a result: a pool that killed its workers then could hang
        code = textwrap.dedent(
            """
            from fractions import Fraction
            import numpy as np
            from powcert import quad
            from powcert.errors import UsageError
            from powcert.galerkin import FourierApproximation

            def refuse(*args, **kw):
                raise UsageError("refused composition")

            quad.ps_compose = refuse
            u = FourierApproximation(1, np.array([[1.0]]))
            cfg = quad.QuadConfig(degree=4, grid_m=2, workers=2)
            for _ in range(200):
                try:
                    quad.integral_power(u, None, Fraction(1, 2), cfg)
                except UsageError:
                    pass
            print("ok")
            """
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


# ----------------------------------------------------------------------
# the depth-first sweep: each rectangle evaluated alone, bisected and
# recursed into at once, kept to check that the level-synchronous sweep
# folds and raises as it does
# ----------------------------------------------------------------------

def depth_first(engine, rect):
    """The contributions of rect and its bisections, feeding the engine
    batches of one rectangle."""
    at_limit = rect.depth >= engine.cfg.max_depth
    (res,) = engine.eval_level([rect])
    if isinstance(res, Exception):
        if at_limit or isinstance(res, IntervalDomainError):
            raise res
    else:
        out, ok = res
        if ok:
            return out
        if at_limit:
            out.over_budget += 1
            return out
    r1, r2 = rect.bisect()
    out = depth_first(engine, r1)
    out.merge(depth_first(engine, r2))
    return out


def both_sweeps(monkeypatch, run):
    """run() with the level-synchronous sweep, then with the depth-first one
    (which forked workers inherit): its result or the error it raised."""
    outs = []
    for depth_first_sweep in (False, True):
        if depth_first_sweep:
            monkeypatch.setattr(quad._Engine, "sweep", lambda self, rects: [depth_first(self, r) for r in rects])
        try:
            outs.append(run())
        except (PositivityError, IntervalDomainError) as exc:
            outs.append(exc)
    return outs


class TestLevelSynchronous:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_digest_matches_depth_first(self, monkeypatch, workers):
        u = fourier_from_dict(5, {(1, 1): 5.0, (3, 1): 0.2, (1, 5): -0.1})
        cfg = QuadConfig(degree=6, grid_m=3, workers=workers)
        level, dfs = both_sweeps(
            monkeypatch, lambda: sweep_digest(u, cfg, res_width=200.0, gram_width=1e-4)
        )
        assert level[-1]["rects"] > 36  # the budgets bisect
        assert level == dfs

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("max_depth", [0, 2])
    def test_positivity_error_matches_depth_first(self, monkeypatch, workers, max_depth):
        # u < 0 near (1/6, 1/2); at max_depth 2 the rectangles before the
        # failing one bisect first
        u = fourier_from_dict(3, {(1, 1): 1.0, (3, 3): 0.8})
        cfg = QuadConfig(degree=6, grid_m=4, max_depth=max_depth, workers=workers)
        level, dfs = both_sweeps(monkeypatch, lambda: sweep_outputs(u, cfg=cfg, res_width=1e-300))
        assert isinstance(level, PositivityError) and isinstance(dfs, PositivityError)
        assert str(level) == str(dfs)
        assert level.rect == dfs.rect and level.rect.depth == max_depth
        assert (level.rng.lo, level.rng.hi) == (dfs.rng.lo, dfs.rng.hi)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_domain_error_matches_depth_first(self, monkeypatch, workers):
        # the tables of [1/6, 1/3] and [1/12, 1/6] are poisoned: base
        # rectangle 1 fails at depth 0, and rectangle 0, before it, fails
        # only in a rectangle of depth 2, found two levels later
        real = quad._sine_factor_matrix

        def poisoned(modes, x0, dom, degree, reduced):
            out = real(modes, x0, dom, degree, reduced)
            if x0 in (Fraction(1, 4), Fraction(1, 8)):
                out.hi[-1, 0] = math.nan
            return out

        monkeypatch.setattr(quad, "_sine_factor_matrix", poisoned)
        u = fourier_from_dict(3, {(1, 1): 5.0, (3, 1): 0.1})
        cfg = QuadConfig(degree=6, grid_m=3, max_depth=2, workers=workers)
        level, dfs = both_sweeps(monkeypatch, lambda: sweep_outputs(u, cfg=cfg, res_width=1e-300))
        assert isinstance(level, IntervalDomainError)
        assert str(level) == str(dfs)
        assert str(level).endswith("on S10 [0,1/12]x[1/12,1/6] depth=2")


# ----------------------------------------------------------------------
# reference kernels: the earlier separate sine and cosine loops, kept to
# check that the shared Taylor-with-remainder helper gives the same bits
# ----------------------------------------------------------------------

def ref_sine_full(modes, x0, dom, degree):
    n = degree
    out = IArr.zeros((n + 1, len(modes)))
    inv_fact = quad._inv_fact_fractions(n + 3)
    for col, m in enumerate(modes):
        w = Interval(float(m)) * quad.PI
        theta = w * Interval.from_fraction(x0)
        s = quad.iv_sin(theta)
        c = quad.iv_cos(theta)
        cyc = (s, c, -s, -c)
        wp = Interval(1.0)
        for k in range(0, n + 1):
            out[k, col] = cyc[k % 4] * wp * Interval.from_fraction(inv_fact[k])
            wp = wp * w
        r = w.mag ** (n + 1) / math.factorial(n + 1) * (1.0 + 1e-12)
        r = math.nextafter(r, math.inf)
        cur = out[n, col].item()
        out[n, col] = cur + Interval(-r, r) * dom
    return out


def ref_cosine(freqs, x0, dom, degree):
    n = degree
    out = IArr.zeros((n + 1, len(freqs)))
    inv_fact = quad._inv_fact_fractions(n + 3)
    for col, f in enumerate(freqs):
        if f == 0:
            out[0, col] = Interval(1.0)
            continue
        w = Interval(float(f)) * quad.PI
        theta = w * Interval.from_fraction(x0)
        s = quad.iv_sin(theta)
        c = quad.iv_cos(theta)
        cyc = (c, -s, -c, s)
        wp = Interval(1.0)
        for k in range(0, n + 1):
            out[k, col] = cyc[k % 4] * wp * Interval.from_fraction(inv_fact[k])
            wp = wp * w
        r = w.mag ** (n + 1) / math.factorial(n + 1) * (1.0 + 1e-12)
        r = math.nextafter(r, math.inf)
        cur = out[n, col].item()
        out[n, col] = cur + Interval(-r, r) * dom
    return out


class TestTrigTablesSameBits:
    @pytest.mark.parametrize("degree", [2, 5, 6, 10, 12])
    def test_against_reference_loops(self, degree):
        modes = odd_modes(59)
        freqs = list(range(0, 60, 2))
        for m in (1, 3, 16):
            h = Fraction(1, 2 * m)
            for i in range(m):
                a, b = i * h, (i + 1) * h
                for x0 in (a, (a + b) / 2):
                    dom = quad._frac_interval(a - x0, b - x0)
                    got = quad._sine_factor_matrix(modes, x0, dom, degree, reduced=False)
                    assert same_bits(got, ref_sine_full(modes, x0, dom, degree)), (degree, a, b, x0)
                    got = quad._cosine_factor_matrix(freqs, x0, dom, degree)
                    assert same_bits(got, ref_cosine(freqs, x0, dom, degree)), (degree, a, b, x0)
