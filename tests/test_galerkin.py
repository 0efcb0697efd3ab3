"""Galerkin solver: fixed-point oracle, identities, symmetry."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from powcert import quad
from powcert.certify import exact_l2_norm
from powcert.errors import SolverError, UsageError
from powcert.galerkin import (
    FourierApproximation,
    GalerkinConfig,
    center_signs,
    newton_solve,
    odd_modes,
)
from powcert.interval import PI
from powcert.spectral import stiffness_intervals


class TestBasics:
    def test_odd_modes(self):
        assert list(odd_modes(6)) == [1, 3, 5]
        assert list(odd_modes(1)) == [1]

    def test_center_signs(self):
        # sin(m pi / 2) over the odd modes, as the solver and center_value take it
        assert list(center_signs(odd_modes(9))) == [1.0, -1.0, 1.0, -1.0, 1.0]
        u = FourierApproximation(5, np.array([[3.0, 0.5, -0.25], [0.125, 2.0, 1.0], [-1.0, 0.5, 0.75]]))
        assert abs(u.center_value() - u.eval_grid([0.5], [0.5])[0, 0]) < 1e-14

    def test_eval_center(self):
        u = FourierApproximation(1, np.array([[2.0]]))
        assert abs(u.eval_grid([0.5], [0.5])[0, 0] - 2.0) < 1e-14
        assert abs(u.center_value() - 2.0) < 1e-14

    def test_laplacian_eigenfunction(self):
        # the residual's Laplacian: -Delta u = 2 pi^2 u for the (1,1) mode
        lap = quad._EtaFourier(FourierApproximation(1, np.array([[3.0]]))).lap[0, 0].item()
        assert lap.contains(-2.0 * math.pi**2 * 3.0)
        assert lap.width < 1e-12

    def test_l2_norm_single_mode(self):
        n = exact_l2_norm(FourierApproximation(1, np.array([[-5.0]])))
        assert n.contains(2.5) and n.width < 1e-14

    def test_stiffness_values(self):
        # (grad phi_ij, grad phi_ij) = (i^2 + j^2) pi^2 / 4
        vals = stiffness_intervals([(1, 1), (3, 5)]) / PI.sqr()
        assert vals[0].item().contains(float(Fraction(1, 2)))
        assert vals[1].item().contains(float(Fraction(34, 4)))
        assert np.all(vals.hi - vals.lo < 1e-14 * np.abs(vals.hi))

    def test_json_roundtrip(self):
        rng = np.random.default_rng(0)
        u = FourierApproximation(5, rng.standard_normal((3, 3)))
        v = FourierApproximation.from_json(u.to_json())
        assert v.n_max == 5
        assert np.allclose(u.coeffs, v.coeffs, rtol=0, atol=0)

    def test_json_bad_mode(self):
        with pytest.raises(UsageError):
            FourierApproximation.from_json('{"n_max": 3, "coeffs": [[2, 1, 0.5]]}')

    @pytest.mark.parametrize(
        "text",
        ["not json", "[]", "{}", '{"n_max": 3}', '{"n_max": "x", "coeffs": []}',
         '{"n_max": 3, "coeffs": [[1, 1]]}', '{"n_max": 3, "coeffs": [[1, 1, "a"]]}',
         '{"n_max": 3, "coeffs": [[1, 1, NaN], [3, 3, Infinity]]}', '{"n_max": 3, "coeffs": [[3, 1, -1e999]]}',
         '{"n_max": 3, "coeffs": [[1, 1, 1e308], [3, 1, 1e308]]}'],
    )
    def test_json_malformed_is_usage_error(self, text):
        with pytest.raises(UsageError, match="coefficient JSON"):
            FourierApproximation.from_json(text)


class TestConfig:
    # GalerkinConfig checks what RunConfig checks of the same settings, for
    # the library caller

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-11, 0, True, "1e-11", None])
    def test_bad_tol_is_usage_error(self, tol):
        with pytest.raises(UsageError, match="tol must be finite and > 0"):
            GalerkinConfig(n_modes=3, tol=tol)

    @pytest.mark.parametrize("points", [-5, 0, True, False, 64.0, "64"])
    def test_bad_quad_points_is_usage_error(self, points):
        with pytest.raises(UsageError, match="quad_points must be None or an integer >= 1"):
            GalerkinConfig(n_modes=3, quad_points=points)

    @pytest.mark.parametrize("points", [None, 1, 48, np.int64(48)])
    def test_quad_points_accepted(self, points):
        assert GalerkinConfig(n_modes=3, quad_points=points).quad_points == points


class TestSolve:
    def test_one_mode_matches_scalar_oracle(self):
        cfg = GalerkinConfig(n_modes=1, tol=1e-12, quad_points=160)
        u = newton_solve(cfg)
        a = u.coeffs[0, 0]
        # scalar oracle: a pi^2/2 = a^(3/2) * I with I = int phi^(5/2)
        I, _ = integrate.dblquad(
            lambda y, x: (math.sin(math.pi * x) * math.sin(math.pi * y)) ** 2.5,
            0.0,
            1.0,
            0.0,
            1.0,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        a_oracle = (math.pi**2 / 2.0 / I) ** 2
        assert abs(a - a_oracle) < 1e-6 * a_oracle

    def test_residual_independent_quadrature(self):
        cfg = GalerkinConfig(n_modes=10, tol=1e-11, quad_points=128)
        u = newton_solve(cfg)
        # re-measure the discrete residual with a finer independent rule
        from powcert.galerkin import _Workspace

        cfg_fine = GalerkinConfig(n_modes=10, tol=1e-11, quad_points=256)
        ws = _Workspace(cfg_fine)
        rn = ws.res_norm(u.coeffs)
        assert rn < 10 * 1e-9  # grid-to-grid quadrature difference dominates

    def test_odd_mode_symmetry(self):
        cfg = GalerkinConfig(n_modes=6, tol=1e-10, quad_points=80)
        u = newton_solve(cfg)
        rng = np.random.default_rng(1)
        for _ in range(25):
            x, y = rng.uniform(0, 1, 2)
            v = u.eval_grid([x, 1 - x], [y, 1 - y])
            assert abs(v[0, 0] - v[1, 0]) < 1e-9 * max(1, abs(v[0, 0]))
            assert abs(v[0, 0] - v[0, 1]) < 1e-9 * max(1, abs(v[0, 0]))

    def test_amplitude_grows_toward_expected_scale(self):
        # coarse run: amplitude should already be in the hundreds
        cfg = GalerkinConfig(n_modes=12, tol=1e-10, quad_points=128)
        u = newton_solve(cfg)
        amp = u.center_value()
        assert 400 < amp < 700

    def test_tol_below_the_picard_floor_fails(self):
        with pytest.raises(SolverError, match="after 50 Picard steps") as info:
            newton_solve(GalerkinConfig(n_modes=5, tol=1e-17))
        assert 1e-17 <= info.value.last_residual < 1e-13
        assert f"{info.value.last_residual:.3g}" in str(info.value)
