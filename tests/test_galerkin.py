"""Galerkin solver: fixed-point oracle, identities, symmetry."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from powcert.errors import UsageError
from powcert.galerkin import (
    FourierApproximation,
    GalerkinConfig,
    newton_solve,
    odd_modes,
)
from powcert.interval import PI
from powcert.spectral import stiffness_intervals


class TestBasics:
    def test_odd_modes(self):
        assert list(odd_modes(6)) == [1, 3, 5]
        assert list(odd_modes(1)) == [1]

    def test_eval_center(self):
        u = FourierApproximation(1, np.array([[2.0]]))
        assert abs(u.eval(0.5, 0.5) - 2.0) < 1e-14
        assert abs(u.center_value() - 2.0) < 1e-14

    def test_laplacian_eigenfunction(self):
        u = FourierApproximation(1, np.array([[3.0]]))
        lap = u.laplacian()
        # -Delta u = 2 pi^2 u for the (1,1) mode
        assert abs(lap.coeffs[0, 0] + 2.0 * math.pi**2 * 3.0) < 1e-12

    def test_laplacian_twice_scaling(self):
        u = FourierApproximation(5, np.eye(3))
        ll = u.laplacian().laplacian()
        m = u.modes
        for i in range(3):
            expect = ((m[i] ** 2 + m[i] ** 2) * math.pi**2) ** 2
            assert abs(ll.coeffs[i, i] - expect) < 1e-9 * expect

    def test_l2_norm_single_mode(self):
        u = FourierApproximation(1, np.array([[-5.0]]))
        assert abs(u.l2_norm() - 2.5) < 1e-14

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
         '{"n_max": 3, "coeffs": [[1, 1, NaN], [3, 3, Infinity]]}', '{"n_max": 3, "coeffs": [[3, 1, -1e999]]}'],
    )
    def test_json_malformed_is_usage_error(self, text):
        with pytest.raises(UsageError, match="coefficient JSON"):
            FourierApproximation.from_json(text)


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
            v = u.eval(x, y)
            assert abs(v - u.eval(1 - x, y)) < 1e-9 * max(1, abs(v))
            assert abs(v - u.eval(x, 1 - y)) < 1e-9 * max(1, abs(v))

    def test_amplitude_grows_toward_expected_scale(self):
        # coarse run: amplitude should already be in the hundreds
        cfg = GalerkinConfig(n_modes=12, tol=1e-10, quad_points=128)
        u = newton_solve(cfg)
        amp = u.center_value()
        assert 400 < amp < 700
