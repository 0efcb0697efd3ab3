"""Verified quadrature: monomial order, rectangle models, oracle containment."""

import math
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from test_ivarray import BLAS, inside_no_wider, needs_blas, ref_corr2d, same_bits

from powcert import quad
from powcert.errors import IntervalDomainError, PositivityError, UsageError
from powcert.galerkin import FourierApproximation, odd_modes
from powcert.interval import Interval, iv_pow
from powcert.ivarray import IArr, iv_conv2d_full, iv_matmul, iv_outer
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


def trig_table(freqs, a, b, van, phase, reduced, degree):
    """The process's factor table of one edge [a, b], reduced on a
    vanishing edge when reduced (quad._trig_tables)."""
    return quad._trig_tables(freqs, [(a, b, van)], phase, (reduced,), degree)[0][0]


def one_rect_engine(u, degree, q=Fraction(1, 2), **cfg):
    """The sweep engine of integral_power(u, None, q), to run on single
    rectangles through sweep or reduced_models."""
    req = quad._Request(powers=(None,))
    return quad._Engine(quad._EtaFourier(u), q, QuadConfig(degree=degree, **cfg), req)


def with_reduced_model(engine, model):
    """The engine with a given reduced model (a batch of one) on every
    rectangle, in place of the one it builds from eta."""
    engine.reduced_models = lambda lay: model[[0] * len(lay.rects)]
    return engine


def reduced_model(engine, rect):
    """The engine's reduced model of eta on one rectangle, a batch of one."""
    return engine.reduced_models(engine.layout([rect]))


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
            cx = quad._local_edge(rect.x0, rect.x1, rect.van_x)[0]
            cy = quad._local_edge(rect.y0, rect.y1, rect.van_y)[0]
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
        v = engine.sweep([Rect.make(0, 1, 0, 1)])[0].sums[0].item()
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

    def test_sine_series_xi_needs_eta_modes(self, table_builds):
        # xi's tensor models take eta's factor tables: other modes are
        # refused before any table is built
        eta = fourier_from_dict(3, {(1, 1): 2.0, (3, 1): 0.05})
        cfg = QuadConfig(degree=6, grid_m=4)
        for n_max, modes in ((1, "[1]"), (5, "[1, 3, 5]")):
            xi = fourier_from_dict(n_max, {(1, 1): 1.0})
            with pytest.raises(UsageError, match=re.escape(f"xi has modes {modes}, eta [1, 3]")):
                integral_power(eta, xi, Fraction(1, 2), cfg)
        assert table_builds == []

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

    def test_same_bits_as_entry_by_entry(self):
        # gram_from_tables forms every entry at once; here each in Interval
        # arithmetic, in the same order
        indices = [(i, j) for i in (1, 3, 5, 7) for j in (1, 3, 5)]
        freqs = gram_indices_freqs(indices)
        rng = np.random.default_rng(3)
        lo = rng.standard_normal((len(freqs),) * 2)
        hi = lo + rng.uniform(0.0, 1e-3, lo.shape)
        lo[0, 1] = hi[0, 1] = 0.0
        t = IArr(lo, hi)
        p = Fraction(3, 2)
        fpos = {f: k for k, f in enumerate(freqs)}
        quarter = Interval.from_fraction(Fraction(1, 4)) * Interval.from_fraction(p)
        ref = IArr.zeros((len(indices),) * 2)
        for a, (i, j) in enumerate(indices):
            for b, (k, l) in enumerate(indices):
                val = (
                    t[fpos[abs(i - k)], fpos[abs(j - l)]].item()
                    - t[fpos[i + k], fpos[abs(j - l)]].item()
                    - t[fpos[abs(i - k)], fpos[j + l]].item()
                    + t[fpos[i + k], fpos[j + l]].item()
                )
                ref[a, b] = val * quarter
        assert same_bits(gram_from_tables(t, freqs, indices, p), ref)

    def test_non_finite_table_rejected(self):
        # a leaf's tables are finite, but their sum may overflow
        indices = [(1, 1), (1, 3)]
        freqs = gram_indices_freqs(indices)
        t = IArr.zeros((len(freqs), len(freqs)))
        t.hi[1, 0] = math.inf  # frequencies (2, 0), in entry (0, 0)
        with pytest.raises(IntervalDomainError, match="non-finite gram matrix"):
            gram_from_tables(t, freqs, indices, Fraction(3, 2))

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
        mn, mx, wit, clo = sweep_outputs(u, cfg=QuadConfig(degree=6, grid_m=4))[2]
        assert mn <= 0.0 <= wit <= 9.0 + 1e-9
        # best interior cell center at grid 4 sits at (7/16, 7/16)
        peak_cell = 9.0 * math.sin(7 * math.pi / 16) ** 2
        assert clo <= peak_cell and abs(clo - peak_cell) < 1e-6
        assert mx >= 9.0


class TestSpecExamples:
    def test_integrate_rect_s00_cell_oracle(self):
        # one interior cell of phi11^(3/2) against an adaptive oracle
        u = fourier_from_dict(1, {(1, 1): 1.0})
        rect = Rect.make(Fraction(1, 4), Fraction(3, 8), Fraction(1, 4), Fraction(3, 8))
        val = one_rect_engine(u, 8).sweep([rect])[0].sums[0].item()
        with mpmath.workdps(20):
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
    def test_factor_tables_shared_between_axes(self, table_builds):
        # the x and y tables of one interval are one table: at grid_m = 2
        # the sweep needs three sine tables ([0, 1/4] reduced and full,
        # [1/4, 1/2] full) and two cosine tables, not one set per axis
        u = fourier_from_dict(3, {(1, 1): 5.0, (3, 1): 0.1})
        pipeline_sweep(u, Fraction(3, 2), [(1, 1), (1, 3)], QuadConfig(degree=6, grid_m=2))
        phases = [args[4] for args in table_builds]
        assert sorted(phases) == [0, 0, 0, 1, 1]

    @pytest.mark.parametrize("table", ["sine", "cosine"])
    def test_non_finite_factor_table_names_rectangle(self, monkeypatch, table):
        phase = ("sine", "cosine").index(table)
        poison_tables(monkeypatch, lambda a, b, van, ph: ph == phase, "hi", (-1, 0), math.nan)
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
def table_builds(monkeypatch):
    """The arguments (freqs, a, b, van, phase, reduced, degree) of every
    factor table built in this process and the number of the builder's
    pass that built it, one entry per edge of each batch the builder makes,
    behind the process's table cache."""
    builds = []
    build = quad._build_trig_tables

    def counting(freqs, edges, phase, reduced, degree):
        n = builds[-1][-1] + 1 if builds else 0
        builds.extend((freqs, a, b, van, phase, reduced, degree, n) for a, b, van in edges)
        return build(freqs, edges, phase, reduced, degree)

    monkeypatch.setattr(quad, "_build_trig_tables", counting)
    return builds


def poison_tables(monkeypatch, when, side, at, value):
    """Give every factor table whose edge and phase pass when(a, b, van,
    phase) the value at index at of its lo or hi endpoints (side): the
    builder poisons the tables of its batch, before the cache keeps them."""
    real = quad._build_trig_tables

    def poisoned(freqs, edges, phase, reduced, degree):
        out = real(freqs, edges, phase, reduced, degree)
        for i, (a, b, van) in enumerate(edges):
            if when(a, b, van, phase):
                getattr(out, side)[i][at] = value
        return out

    monkeypatch.setattr(quad, "_build_trig_tables", poisoned)


def mid_at(a, b, van, *points):
    """Whether the edge [a, b] is expanded at its midpoint, one of points."""
    return not van and (a + b) / 2 in points


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
        # blocks of 2 and 1 grid rows, of one row, and more workers than rows
        u = fourier_from_dict(5, {(1, 1): 5.0, (3, 1): 0.2, (1, 5): -0.1})
        digests = [
            sweep_digest(u, QuadConfig(degree=6, grid_m=3, workers=w), res_width=200.0, gram_width=1e-4)
            for w in (1, 2, 3, 5)
        ]
        assert digests[0][-1]["rects"] > 36  # the budgets bisect
        assert all(d == digests[0] for d in digests[1:])

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

    @pytest.mark.parametrize("grid_m, workers, sizes", [(4, 2, [8, 8]), (4, 3, [8, 8]), (4, 9, [4, 4, 4, 4]), (5, 2, [15, 10])])
    def test_one_block_of_whole_rows_per_worker(self, monkeypatch, grid_m, workers, sizes):
        from concurrent.futures import ProcessPoolExecutor

        handed = []
        real = ProcessPoolExecutor.map

        def recording(pool, fn, *iterables, **kw):
            handed.extend(len(block) for block in iterables[0])
            return real(pool, fn, *iterables, **kw)

        monkeypatch.setattr(ProcessPoolExecutor, "map", recording)
        u = fourier_from_dict(3, {(1, 1): 5.0, (3, 1): 0.1})
        integral_power(u, None, Fraction(1, 2), QuadConfig(degree=4, grid_m=grid_m, workers=workers))
        assert handed == sizes

    @pytest.mark.parametrize("workers", [2, 3, 5])
    @pytest.mark.parametrize("max_depth", [0, 1])
    def test_first_error_in_a_later_block(self, workers, max_depth):
        # u < 0 for x in (0.435, 1/2] only: the positivity check first
        # fails at x >= 1/4, in the second half of the grid rows, so the
        # first block sweeps without an error and a later one raises the
        # serial sweep's first error
        u = fourier_from_dict(3, {(1, 1): 1.0, (3, 1): 1.2})
        errors = []
        for w in (1, workers):
            cfg = QuadConfig(degree=6, grid_m=4, max_depth=max_depth, workers=w)
            with pytest.raises(PositivityError) as exc:
                sweep_outputs(u, cfg=cfg)
            errors.append(exc.value)
        serial, forked = errors
        assert serial.rect.x0 >= Fraction(1, 4) and serial.rect.depth == max_depth
        assert str(forked) == str(serial)
        assert forked.rect == serial.rect
        assert (forked.rng.lo, forked.rng.hi) == (serial.rng.lo, serial.rng.hi)

    @needs_blas
    def test_forked_worker_has_one_blas_thread(self, monkeypatch):
        get, set_ = BLAS
        parent = os.getpid()
        real = quad._Engine.sweep

        def checking(self, rects):
            if os.getpid() == parent or get() != 1:
                raise UsageError(f"pid {os.getpid()} (parent {parent}), {get()} BLAS threads")
            return real(self, rects)

        monkeypatch.setattr(quad._Engine, "sweep", checking)
        u = fourier_from_dict(3, {(1, 1): 5.0, (3, 1): 0.1})
        before = get()
        set_(2)
        try:
            integral_power(u, None, Fraction(1, 2), QuadConfig(degree=4, grid_m=2, workers=2))
            assert get() == 2  # restored in the calling process
        finally:
            set_(before)

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
        poison_tables(
            monkeypatch,
            lambda a, b, van, phase: phase == 0 and mid_at(a, b, van, Fraction(1, 4), Fraction(1, 8)),
            "hi",
            (-1, 0),
            math.nan,
        )
        u = fourier_from_dict(3, {(1, 1): 5.0, (3, 1): 0.1})
        cfg = QuadConfig(degree=6, grid_m=3, max_depth=2, workers=workers)
        level, dfs = both_sweeps(monkeypatch, lambda: sweep_outputs(u, cfg=cfg, res_width=1e-300))
        assert isinstance(level, IntervalDomainError)
        assert str(level) == str(dfs)
        assert str(level).endswith("on S10 [0,1/12]x[1/12,1/6] depth=2")


# ----------------------------------------------------------------------
# reference kernels: the earlier table loops, one per kind of table, which
# took sines and cosines of (f pi) x0 formed in intervals; kept to check
# that the one table builder is nowhere wider, and has their bits on the
# reduced sine sin(f pi t)/t
# ----------------------------------------------------------------------

def ref_inv_fact(n):
    return [Fraction(1, math.factorial(k)) for k in range(n + 1)]


def ref_sine_full(modes, x0, dom, degree):
    n = degree
    out = IArr.zeros((n + 1, len(modes)))
    inv_fact = ref_inv_fact(n + 3)
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
    inv_fact = ref_inv_fact(n + 3)
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


def ref_sine_reduced(modes, dom, degree):
    """sin(m pi t)/t."""
    n = degree
    out = IArr.zeros((n + 1, len(modes)))
    inv_fact = ref_inv_fact(n + 3)
    for col, m in enumerate(modes):
        w = Interval(float(m)) * quad.PI
        wp = w
        for k in range(0, n + 1):
            if k % 2 == 0:
                sign = 1.0 if (k // 2) % 2 == 0 else -1.0
                out[k, col] = wp * Interval.from_fraction(inv_fact[k + 1] * int(sign))
            wp = wp * w
        if n % 2 == 0:
            order = n + 3
            extra = dom.sqr()
        else:
            order = n + 2
            extra = dom
        r = w.mag**order / math.factorial(order) * (1.0 + 1e-12)
        r = math.nextafter(r, math.inf)
        rem = Interval(-r, r) * extra
        cur = out[n, col].item()
        out[n, col] = cur + rem
    return out


def mp_fraction(r):
    return mpmath.mpf(r.numerator) / r.denominator


def sinpi(r):
    """sin(pi r) for a rational r, exact where it is 0 or +-1."""
    return mpmath.sinpi(mp_fraction(Fraction(r) % 2))


def grid_edges(grids=(1, 3, 8, 16)):
    """The edges of the base rectangles of each grid, vanishing at 0."""
    for m in grids:
        h = Fraction(1, 2 * m)
        for i in range(m):
            yield i * h, (i + 1) * h, i == 0


class TestTrigTablesSameBits:
    @pytest.mark.parametrize("degree", [2, 5, 6, 10, 12])
    def test_against_reference_loops(self, degree):
        # the reduced sines keep the reference loop's bits; every other
        # entry encloses the same coefficient as the reference and is never
        # wider
        modes, freqs = tuple(map(int, odd_modes(59))), tuple(range(0, 60, 2))
        for a, b, van in grid_edges():
            x0, lo, hi = quad._local_edge(a, b, van)
            dom = quad._frac_interval(lo, hi)
            for phase, fs, ref in ((0, modes, ref_sine_full), (1, freqs, ref_cosine)):
                got = trig_table(fs, a, b, van, phase, False, degree)
                ref = ref(fs, x0, dom, degree)
                where = (degree, a, b, phase)
                assert np.all(got.lo <= ref.hi) and np.all(ref.lo <= got.hi), where
                assert np.all(got.hi - got.lo <= ref.hi - ref.lo), where
            for d in range(3 if van else 0):  # the edge and its first bisections
                e = b / 2**d
                got = trig_table(modes, Fraction(0), e, True, 0, True, degree)
                ref = ref_sine_reduced(modes, quad._frac_interval(Fraction(0), e), degree)
                assert same_bits(got, ref), (degree, e)


class TestTrigTables:
    def test_exact_cycle_entries_give_exact_rows(self):
        # cos(f pi (1/4 + t)) for even f: f/4 is a multiple of 1/2, so the
        # cycle entries are exactly 0 and +-1, and so are the rows' factors
        n, freqs = 6, (2, 4, 6)
        got = trig_table(freqs, Fraction(0), Fraction(1, 2), False, 1, False, n)
        # the first derivatives at f pi/4: (0, -f pi), (-1, 0) and (0, f pi)
        assert same_bits(got[0], IArr.exact([0.0, -1.0, 0.0]))
        term = IArr.exact(freqs) * quad.PI * Interval(1.0)
        assert same_bits(got[1], IArr([-term.hi[0], 0.0, term.lo[2]], [-term.lo[0], 0.0, term.hi[2]]))
        for k in range(n):
            zero = [col for col, f in enumerate(freqs) if (f // 2 + k) % 2]
            assert same_bits(got[k, zero], IArr.zeros(len(zero))), k

    @pytest.mark.parametrize("phase, reduced", [(0, False), (1, False), (0, True)])
    def test_models_enclose_function(self, phase, reduced):
        # each row below the top encloses the exact Taylor coefficient, and
        # the model evaluated in intervals encloses the function
        n = 6
        fs = tuple(map(int, odd_modes(15))) if phase == 0 else tuple(range(0, 16, 2))
        shift = int(reduced)
        for a, b, van in grid_edges((3,)):
            if reduced and not van:
                continue
            x0, lo, hi = quad._local_edge(a, b, van)
            got = trig_table(fs, a, b, van, phase, reduced, n)
            for col, f in enumerate(fs):
                w = f * mpmath.pi
                for k in range(n):
                    j = k + shift
                    c = w**j / mpmath.factorial(j) * sinpi(f * x0 + Fraction(j + phase, 2))
                    assert got.lo[k, col] <= c <= got.hi[k, col], (a, b, f, k)
                for t in (lo, hi, (lo + hi) / 3):
                    if not reduced:
                        value = sinpi(f * (x0 + t) + Fraction(phase, 2))
                    elif t:
                        value = sinpi(f * t) / mp_fraction(t)
                    else:
                        value = w
                    powers = [iv_pow(Interval.from_fraction(t), k) for k in range(n + 1)]
                    terms = (Interval(got.lo[k, col], got.hi[k, col]) * powers[k] for k in range(n + 1))
                    model = sum(terms, Interval(0.0))
                    assert model.lo <= value <= model.hi, (a, b, f, t)

    def test_tracer_names_importable(self):
        from powcert import interval

        assert quad.iv_sin is interval.iv_sin and quad.iv_cos is interval.iv_cos

    def test_quad_iv_matmul_gets_matrices(self, monkeypatch):
        # the tracer's cost hook for quad.iv_matmul unpacks 2-D operands, so
        # the stacked products, the gram tables' included, call
        # ivarray.iv_matmul
        real, shapes = quad.iv_matmul, set()

        def recording(a, b):
            shapes.add((a.ndim, b.ndim))
            return real(a, b)

        monkeypatch.setattr(quad, "iv_matmul", recording)
        u = fourier_from_dict(3, {(1, 1): 5.0, (3, 1): 0.2})
        cfg = QuadConfig(degree=6, grid_m=2)
        sweep_outputs(u, [(1, 1), (1, 3)], cfg)
        integral_power(u, u, Fraction(1, 2), cfg)
        assert shapes == {(2, 2)}


class TestBatchedTables:
    @pytest.mark.parametrize("degree", [6, 10])
    def test_batch_has_bits_of_each_edge_alone(self, degree):
        # vanishing and interior edges mixed in one batch; sines, cosines,
        # frequency 0 and reduced tables
        modes, freqs = tuple(map(int, odd_modes(15))), (0, 2, 4, 6, 12, 28)
        edges = list(grid_edges((1, 3, 8)))
        vanishing = [e for e in edges if e[2]]
        for fs, phase, reduced, batch in (
            (modes, 0, False, edges),
            (freqs, 0, False, edges),
            (freqs, 1, False, edges),
            (modes, 0, True, vanishing),
            (freqs, 0, True, vanishing),
        ):
            got = quad._build_trig_tables(fs, batch, phase, reduced, degree)
            assert got.shape == (len(batch), degree + 1, len(fs))
            for i, edge in enumerate(batch):
                alone = quad._build_trig_tables(fs, [edge], phase, reduced, degree)
                assert same_bits(got[i], alone[0]), (phase, reduced, edge)

    def test_level_tables_built_once_in_batches(self, monkeypatch):
        # reduced tables on the vanishing edges and full ones elsewhere, and
        # full ones everywhere, from one call: each built once, in one batch
        # per kind
        batches = []
        real = quad._build_trig_tables

        def recording(freqs, edges, phase, reduced, degree):
            batches.append((reduced, list(edges)))
            return real(freqs, edges, phase, reduced, degree)

        monkeypatch.setattr(quad, "_build_trig_tables", recording)
        modes, degree = (1, 3, 5), 6
        edges = list(grid_edges((4,)))
        got = quad._trig_tables(modes, edges + edges[:2], 0, (True, False), degree)
        assert [len(row) for row in got] == [len(edges) + 2] * 2
        assert sorted(reduced for reduced, _ in batches) == [False, True]
        vanishing = [e for e in edges if e[2]]
        assert sorted(e for _, batch in batches for e in batch) == sorted(edges + vanishing)
        again = quad._trig_tables(modes, edges, 0, (True, False), degree)
        assert len(batches) == 2
        for kind, row, row_again in zip((True, False), got, again):
            for (a, b, van), table, table_again in zip(edges, row, row_again):
                reduced = kind and van
                assert same_bits(table, real(modes, [(a, b, van)], 0, reduced, degree)[0]), (a, b)
                assert table is table_again is trig_table(modes, a, b, van, 0, reduced, degree)

    def test_reduced_table_needs_vanishing_edge(self):
        h = Fraction(1, 4)
        with pytest.raises(UsageError, match="vanishing edge"):
            quad._build_trig_tables((1, 3), [(h, 2 * h, False)], 0, True, 6)
        with pytest.raises(UsageError, match="vanishing edge"):
            quad._build_trig_tables((1, 3), [(Fraction(0), h, True)], 1, True, 6)


# ----------------------------------------------------------------------
# the per-rectangle contributions: one rectangle's tensor models, gram
# tables, residual and power pieces computed alone, kept to check that the
# level-batched contributions give the same bits
# ----------------------------------------------------------------------

def ref_tensor_model(engine, rect, a_iv, reduced, domain):
    """sum_ij a_ij f_i(x) f_j(y) on one rectangle, a batch of one."""
    n, modes = engine.n, engine.eta.modes
    x = trig_table(modes, rect.x0, rect.x1, rect.van_x, 0, reduced and rect.van_x, n)
    y = trig_table(modes, rect.y0, rect.y1, rect.van_y, 0, reduced and rect.van_y, n)
    return PowerSeries2D(iv_matmul(iv_matmul(x, a_iv), IArr(y.lo.T, y.hi.T)), domain)


def ref_corner_terms(rect, qx, qy, nx, ny, reduce):
    lx0, lx1 = rect.local_x()
    ly0, ly1 = rect.local_y()
    xends = ((lx1, 1),) if lx0 == 0 else ((lx1, 1), (lx0, -1))
    yends = ((ly1, 1),) if ly0 == 0 else ((ly1, 1), (ly0, -1))
    terms = []
    for xe, xsign in xends:
        xtab = quad._corner_table(xe, qx, nx)
        for ye, ysign in yends:
            f = reduce(xtab, quad._corner_table(ye, qy, ny))
            terms.append(f if xsign * ysign > 0 else -f)
    return terms


def ref_poly_integral(coeffs, rect, qx, qy):
    terms = ref_corner_terms(rect, qx, qy, *coeffs.shape, lambda X, Y: (coeffs * iv_outer(X, Y)).sum().item())
    return sum(terms, Interval(0.0))


def hankel_corr(X, Y, w):
    """The correlation of the corner table X outer Y with w, as the Hankel
    products Hx w Hy, Hx[a, i] = X[a + i] (Hy alike)."""
    at = np.add.outer(np.arange(len(w)), np.arange(len(w)))
    return iv_matmul(iv_matmul(IArr(X.lo[at], X.hi[at]), w), IArr(Y.lo[at], Y.hi[at]))


def window_corr(X, Y, w):
    """The same correlation through the window matrix of X outer Y."""
    return ref_corr2d(iv_outer(X, Y), w)


def ref_gram_tables(engine, w_coeffs, cx, cy, rect, qx, qy, corr=hankel_corr):
    size = 2 * engine.n + 1
    cx_t = IArr(cx.lo.T, cx.hi.T)

    def reduce(X, Y):
        return iv_matmul(iv_matmul(cx_t, corr(X, Y, w_coeffs)), cy)

    terms = ref_corner_terms(rect, qx, qy, size, size, reduce)
    return sum(terms[1:], terms[0])


def window_gram_tables(engine, groups, w, cx, cy):
    """_Engine._gram_tables item by item through the window kernel
    (window_corr): the form the Hankel products replaced."""
    out = []
    for at, rect in groups:
        qx = engine.q if rect.van_x else Fraction(0)
        qy = engine.q if rect.van_y else Fraction(0)
        for b in range(at.start, at.stop):
            out.append(ref_gram_tables(engine, w.coeffs[b], cx[b], cy[b], rect, qx, qy, window_corr))
    return IArr.stack(out)


def ref_residual_piece(engine, rect, v_red, w, v_lap):
    van_x, van_y = rect.van_x, rect.van_y
    p = engine.req.residual_p
    if not (van_x or van_y):
        r_model = (v_lap + w * v_red).coeffs[0]
        return ref_poly_integral(iv_conv2d_full(r_model, r_model), rect, Fraction(0), Fraction(0))
    ex = Fraction(1) if van_x else Fraction(0)
    ey = Fraction(1) if van_y else Fraction(0)
    lap = v_lap.coeffs[0]
    piece1 = ref_poly_integral(iv_conv2d_full(lap, lap), rect, Fraction(0), Fraction(0))
    cross = iv_conv2d_full((w * v_red).coeffs[0], lap)
    piece2 = ref_poly_integral(cross, rect, p * ex, p * ey)
    two_p = 2 * p
    if two_p.denominator == 1:
        acc = v_red
        for _ in range(two_p.numerator - 1):
            acc = acc * v_red
    else:
        acc = (w * w) * (v_red * v_red)
    piece3 = ref_poly_integral(acc.coeffs[0], rect, two_p * ex, two_p * ey)
    return piece1 + Interval(2.0) * piece2 + piece3


def ref_power_piece(w_coeffs, xi, rect, qx, qy):
    if xi is None:
        prod = w_coeffs
    elif isinstance(xi, Interval):
        prod = w_coeffs * xi
    else:
        prod = iv_conv2d_full(w_coeffs, xi.coeffs[0])
    return ref_poly_integral(prod, rect, qx, qy)


def ref_rect_out(engine, rect, red_range, v_red, w, v_lap, xis):
    """One rectangle's contributions and whether all fit their budgets."""
    area = rect.area
    van_x, van_y = rect.van_x, rect.van_y
    req = engine.req
    u_range = red_range
    center_lo = -math.inf
    if van_x or van_y:
        dx, dy = (d[0].item() for d in v_red.domain)
        mon_range = Interval(1.0)
        if van_x:
            mon_range = mon_range * dx
        if van_y:
            mon_range = mon_range * dy
        u_range = mon_range * red_range
    else:
        center_lo = v_red.const_coeff()[0].item().lo
    qx = engine.q if van_x else Fraction(0)
    qy = engine.q if van_y else Fraction(0)
    w_coeffs = w.coeffs[0]
    # the row: residual square, integrals, gram table row by row
    scalars, budgets = [], []
    if req.residual_p is not None:
        scalars.append(ref_residual_piece(engine, rect, v_red, w, v_lap))
        budgets.append(req.res_width)
    for xi in xis:
        scalars.append(ref_power_piece(w_coeffs, xi, rect, qx, qy))
        budgets.append(req.power_width)
    row = IArr.from_intervals(scalars)
    if req.gram_freqs is not None:
        cx = trig_table(req.gram_freqs, rect.x0, rect.x1, van_x, 1, False, engine.n)
        cy = trig_table(req.gram_freqs, rect.y0, rect.y1, van_y, 1, False, engine.n)
        t_rect = ref_gram_tables(engine, w_coeffs, cx, cy, rect, qx, qy)
        row = IArr(np.concatenate([row.lo, t_rect.lo.ravel()]), np.concatenate([row.hi, t_rect.hi.ravel()]))
        budgets += [req.gram_width] * t_rect.lo.size
    if not (np.isfinite(row.lo).all() and np.isfinite(row.hi).all()):
        raise IntervalDomainError("non-finite integral")
    ok = not any(b is not None and wd > b * area for wd, b in zip(row.width(), budgets))
    out = quad._RectOut(row, u_range.lo, u_range.hi, u_range.lo, center_lo)
    return out, ok


def mixed_rects():
    """Rectangles of all four classes at depths 0 to 2 of a 3 x 3 grid,
    several of one class and local box, in no particular order."""
    rects = []
    for k, rect in enumerate(Subdivision(3).rects()):
        rects.append(rect)
        halves = rect.bisect()
        rects.extend(halves)
        rects.extend(halves[k % 2].bisect())
    order = np.random.default_rng(5).permutation(len(rects))
    return [rects[i] for i in order]


def rect_out_digest(res):
    out, ok = res
    return (
        ok, out.sums.lo.tobytes(), out.sums.hi.tobytes(), out.rng_min, out.rng_max,
        out.witness_lo, out.center_lo, out.rect_count, out.over_budget,
    )


class TestLevelBatchedContributions:
    @pytest.mark.parametrize("p", [Fraction(3, 2), Fraction(7, 4)])
    def test_same_bits_as_one_rectangle_alone(self, p):
        # p = 3/2: [eta]^(2p) as a power of eta; p = 7/4: (w w)(eta eta)
        u = fourier_from_dict(3, {(1, 1): 5.0, (3, 1): 0.2, (1, 3): -0.1})
        xi = fourier_from_dict(3, {(1, 1): 1.0, (3, 3): 0.3})
        indices = [(1, 1), (1, 3), (3, 1)]
        req = quad._Request(
            residual_p=p,
            gram_freqs=tuple(gram_indices_freqs(indices)),
            powers=(None, Interval(0.75), quad._EtaFourier(xi)),
            res_width=1.0,
            gram_width=1e-2,
            power_width=1e-3,
        )
        engine = quad._Engine(quad._EtaFourier(u), p - 1, QuadConfig(degree=6, grid_m=3), req)
        rects = mixed_rects()
        assert {r.cls for r in rects} == set(RectClass) and {r.depth for r in rects} == {0, 1, 2}

        got = engine.eval_level(rects)
        flags = set()
        for b, rect in enumerate(rects):
            v = reduced_model(engine, rect)
            red = v.range()
            assert same_bits(v.coeffs[0], ref_tensor_model(engine, rect, engine.eta.coeffs, True, v.domain).coeffs[0])
            w = quad.ps_compose(engine.pow_q, v)
            lap = ref_tensor_model(engine, rect, engine.eta.lap, False, v.domain)
            xis = [None, req.powers[1], ref_tensor_model(engine, rect, req.powers[2].coeffs, False, v.domain)]
            ref = ref_rect_out(engine, rect, red[0].item(), v, w, lap, xis)
            assert rect_out_digest(got[b]) == rect_out_digest(ref), rect.describe()
            flags.add(ref[1])
        assert flags == {True, False}  # some rectangles fit the budgets, some do not

    @pytest.mark.parametrize("degree", [6, 10])
    def test_hankel_gram_inside_window_form(self, monkeypatch, degree):
        # every gram table of the Hankel products lies inside the one of the
        # window kernel and is no wider, on rectangles of all four classes
        u = fourier_from_dict(3, {(1, 1): 5.0, (3, 1): 0.2, (1, 3): -0.1})
        req = quad._Request(gram_freqs=tuple(gram_indices_freqs([(1, 1), (1, 3), (3, 1), (3, 3)])))
        engine = quad._Engine(quad._EtaFourier(u), Fraction(1, 2), QuadConfig(degree=degree, grid_m=3), req)
        rects = mixed_rects()
        got = engine.eval_level(rects)
        monkeypatch.setattr(quad._Engine, "_gram_tables", window_gram_tables)
        ref = engine.eval_level(rects)
        for rect, (out, _), (ref_out, _) in zip(rects, got, ref):
            # the gram table alone makes up the row
            assert inside_no_wider(out.sums, ref_out.sums), rect.describe()
        assert not all(same_bits(a[0].sums, b[0].sums) for a, b in zip(got, ref))

    # the poisoned tables make NaN on purpose
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_gram_table_matches_depth_first(self, monkeypatch, workers):
        # the cosine tables of [1/6, 1/3] and [1/12, 1/6] are poisoned: base
        # rectangle 1 fails at depth 0, and rectangle 0, before it, fails
        # only in a rectangle of depth 2
        poison_tables(
            monkeypatch,
            lambda a, b, van, phase: phase == 1 and mid_at(a, b, van, Fraction(1, 4), Fraction(1, 8)),
            "lo",
            (0, 0),
            -math.inf,
        )
        u = fourier_from_dict(3, {(1, 1): 5.0, (3, 1): 0.1})
        cfg = QuadConfig(degree=6, grid_m=3, max_depth=2, workers=workers)
        level, dfs = both_sweeps(monkeypatch, lambda: sweep_outputs(u, cfg=cfg, res_width=1e-300))
        assert isinstance(level, IntervalDomainError)
        assert str(level) == str(dfs)
        assert str(level) == "non-finite integral on S10 [0,1/12]x[1/12,1/6] depth=2"

    def test_level_laid_out_once_with_a_table_pass_per_kind(self, monkeypatch, table_builds):
        # reduced sines for eta, plain sines for the Laplacian and xi, and
        # gram cosines: one layout and one builder pass per kind of table
        layouts = []
        real = quad._Layout.__init__

        def counting(lay, rects):
            layouts.append(len(rects))
            real(lay, rects)

        monkeypatch.setattr(quad._Layout, "__init__", counting)
        u = fourier_from_dict(3, {(1, 1): 5.0, (3, 1): 0.2, (1, 3): -0.1})
        xi = fourier_from_dict(3, {(1, 1): 1.0, (3, 3): 0.3})
        req = quad._Request(
            residual_p=Fraction(3, 2),
            gram_freqs=tuple(gram_indices_freqs([(1, 1), (1, 3)])),
            powers=(quad._EtaFourier(xi),),
        )
        engine = quad._Engine(quad._EtaFourier(u), Fraction(1, 2), QuadConfig(degree=6, grid_m=3), req)
        rects = mixed_rects()
        assert not any(isinstance(res, Exception) for res in engine.eval_level(rects))
        assert layouts == [len(rects)]
        kinds = {}
        for entry in table_builds:
            kinds.setdefault(entry[-1], set()).add(entry[4:6])  # (phase, reduced) per pass
        assert sorted(kind for pass_kinds in kinds.values() for kind in pass_kinds) == [(0, False), (0, True), (1, False)]
        assert len(kinds) == 3

    def test_positivity_failure_inside_a_group(self, monkeypatch):
        # u < 0 for x in (0.435, 1/2]: on the 4 x 4 grid the check fails on
        # S00 [1/4,3/8]x[1/8,1/4], between two rectangles of its class and
        # local box that pass it, and on four other rectangles
        u = fourier_from_dict(3, {(1, 1): 1.0, (3, 1): 1.2})
        req = quad._Request(residual_p=Fraction(3, 2), gram_freqs=tuple(gram_indices_freqs([(1, 1), (1, 3)])))
        engine = quad._Engine(quad._EtaFourier(u), Fraction(1, 2), QuadConfig(degree=6, grid_m=4), req)
        rects = Subdivision(4).rects()
        lay = engine.layout(rects)
        got = engine.eval_level(rects)
        failed = [isinstance(got[b], PositivityError) for b in lay.order]
        assert sum(failed) == 5
        j = lay.rects.index(Rect.make(Fraction(1, 4), Fraction(3, 8), Fraction(1, 8), Fraction(1, 4)))
        assert failed[j - 1 : j + 2] == [False, True, False] and lay.box[j - 1] == lay.box[j] == lay.box[j + 1]
        for rect, res in zip(rects, got):
            (alone,) = engine.eval_level([rect])
            if isinstance(alone, PositivityError):
                assert str(res) == str(alone) and (res.rng.lo, res.rng.hi) == (alone.rng.lo, alone.rng.hi)
            else:
                assert rect_out_digest(res) == rect_out_digest(alone), rect.describe()
        # the sweep raises the first failure in rectangle order, as the
        # depth-first sweep does serially
        errors = []
        for workers in (1, 2):
            cfg = QuadConfig(degree=6, grid_m=4, max_depth=0, workers=workers)
            errors += both_sweeps(monkeypatch, lambda: sweep_outputs(u, cfg=cfg))
        assert all(isinstance(exc, PositivityError) for exc in errors)
        assert len({(str(exc), exc.rect, exc.rng.lo, exc.rng.hi) for exc in errors}) == 1


class TestTablesPerProcess:
    def test_second_integral_builds_no_table(self, table_builds):
        builds = table_builds
        u = fourier_from_dict(3, {(1, 1): 2.0, (3, 1): 0.05})
        u2 = fourier_from_dict(3, {(1, 1): 1.5, (1, 3): -0.02})
        cfg = QuadConfig(degree=6, grid_m=3)
        first = [integral_power(u, xi, Fraction(1, 2), cfg) for xi in (None, u)]
        assert builds
        built, corners = len(builds), quad._corner_table.cache_info().misses
        again = [integral_power(u, xi, Fraction(1, 2), cfg) for xi in (None, u)]
        integral_power(u2, u2, Fraction(1, 2), cfg)  # other coefficients, the same modes
        assert len(builds) == built and quad._corner_table.cache_info().misses == corners
        assert [(v.lo, v.hi) for v in again] == [(v.lo, v.hi) for v in first]

    def test_tables_read_only(self):
        h = Fraction(1, 8)
        for table in (
            trig_table((1, 3), Fraction(0), h, True, 0, True, 6),
            trig_table((0, 2), h, 2 * h, False, 1, False, 6),
            quad._corner_table(h, Fraction(1, 2), 7),
        ):
            with pytest.raises(ValueError):
                table.lo[0] = 0.0
            with pytest.raises(ValueError):
                table.hi[0] = 0.0
