"""Spectral enclosures: oracle pencils, two-sided sandwich, K arithmetic."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import powcert
from powcert import spectral
from powcert.errors import DefinitenessError, VerificationFailure
from powcert.galerkin import GalerkinConfig, newton_solve
from powcert.interval import Interval, iv_pow
from powcert.ivarray import IArr
from powcert.quad import QuadConfig, gram_from_tables, gram_indices_freqs, pipeline_sweep
from powcert.spectral import (
    EigenEnclosure,
    Pencil,
    compute_K,
    projection_constant,
    stiffness_intervals,
    symmetric_indices,
    two_sided_bounds,
    verified_discrete_eigs,
)

mpmath.mp.dps = 40


def random_pencil(rng, dim):
    """Random symmetric-definite pencil with exact float entries."""
    r = rng.standard_normal((dim, dim))
    a = r @ r.T + dim * np.eye(dim)
    r2 = rng.standard_normal((dim, dim))
    b = r2 @ r2.T + dim * np.eye(dim)
    indices = [(2 * i + 1, 1) for i in range(dim)]
    a_diag = IArr.exact(np.diag(a).copy())
    pencil = Pencil(indices, a_diag, IArr.exact(b))
    # replace the diagonal stiffness with the full a via a_full override
    full = IArr.exact(a)
    pencil.a_full = lambda: full  # type: ignore[method-assign]
    return pencil, a, b


def oracle_eigs(a, b):
    am = mpmath.matrix(a.tolist())
    bm = mpmath.matrix(b.tolist())
    prod = bm**-1 * am
    ev = mpmath.eig(prod, left=False, right=False)
    return sorted(float(mpmath.re(v)) for v in ev)


class TestDiscreteEigs:
    def test_diagonal_harness(self):
        a = IArr.exact(np.array([2.0, 8.0]))
        b = IArr.exact(np.eye(2))
        p = Pencil([(1, 1), (1, 3)], a, b)
        lo, hi = verified_discrete_eigs(p)
        assert lo[0] <= 2.0 <= hi[0]
        assert lo[1] <= 8.0 <= hi[1]
        assert hi[0] - lo[0] < 1e-10

    def test_random_pencils_contain_oracle(self, monkeypatch):
        # the numpy basis, and scipy's (imported here only) in its place
        from scipy import linalg as sla

        rng = np.random.default_rng(0)
        for trial in range(50):
            dim = int(rng.integers(2, 7))
            pencil, a, b = random_pencil(rng, dim)
            ora = oracle_eigs(a, b)
            for basis in (spectral._midpoint_basis, lambda am, bm: sla.eigh(am, bm)[1]):
                with monkeypatch.context() as m:
                    m.setattr(spectral, "_midpoint_basis", basis)
                    lo, hi = verified_discrete_eigs(pencil)
                for k in range(dim):
                    assert lo[k] <= ora[k] <= hi[k], (trial, k, basis)

    def test_widening_b_widens_enclosures(self):
        rng = np.random.default_rng(1)
        pencil, a, b = random_pencil(rng, 4)
        lo1, hi1 = verified_discrete_eigs(pencil)
        wide = IArr(pencil.b.lo - 1e-8, pencil.b.hi + 1e-8)
        pencil2 = Pencil(pencil.indices, pencil.a_diag, wide)
        pencil2.a_full = pencil.a_full  # type: ignore[method-assign]
        lo2, hi2 = verified_discrete_eigs(pencil2)
        assert np.all(lo2 <= lo1 + 1e-15)
        assert np.all(hi2 >= hi1 - 1e-15)


class TestMidpointBasis:
    """V is a floating candidate: a midpoint pencil without a basis, and a
    basis that cannot certify B, both end in DefinitenessError."""

    def _pencil(self, b_lo, b_hi=None):
        b_lo = np.asarray(b_lo, dtype=float)
        b = IArr(b_lo, b_lo if b_hi is None else b_hi)
        return Pencil([(1, 1), (1, 3)], IArr.exact(np.array([2.0, 8.0])), b)

    def test_indefinite_midpoint(self):
        with pytest.raises(DefinitenessError, match="midpoint eigendecomposition failed"):
            verified_discrete_eigs(self._pencil([[1.0, 2.0], [2.0, 1.0]]))

    def test_nan_in_b(self):
        with pytest.raises(DefinitenessError, match="midpoint eigendecomposition failed"):
            verified_discrete_eigs(self._pencil([[1.0, math.nan], [math.nan, 1.0]]))

    def test_wide_b_cannot_certify(self):
        # the midpoint is I, but |M - I| has row sums 1.2
        eye = np.eye(2)
        with pytest.raises(DefinitenessError, match="cannot certify B positive definite"):
            verified_discrete_eigs(self._pencil(eye - 0.6, eye + 0.6))

    def test_runtime_imports_no_scipy(self):
        code = (
            "import sys\n"
            "import powcert.cli\n"
            "assert powcert.cli.main(['constants']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(powcert.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[]"


class TestTwoSided:
    def test_worked_ten_over_one_point_one(self):
        enc = two_sided_bounds(
            np.array([10.0]), np.array([10.0]), Interval(0.1), Interval(1.0)
        )
        target = 10.0 / 1.1
        assert abs(enc.lam_lo[0] - target) < 1e-12
        assert enc.lam_lo[0] <= target
        assert enc.lam_hi[0] == 10.0

    def test_zero_weight_collapses(self):
        enc = two_sided_bounds(
            np.array([3.0]), np.array([3.0]), Interval(0.1), Interval(0.0)
        )
        assert abs(enc.lam_lo[0] - 3.0) < 1e-14

    def test_sandwich_ordering(self):
        enc = two_sided_bounds(
            np.array([1.0, 2.0, 5.0]),
            np.array([1.1, 2.1, 5.1]),
            Interval(0.02),
            Interval(30.0),
        )
        assert np.all(enc.lam_lo <= enc.lam_hi)
        assert np.all(np.diff(enc.lam_lo) > -1e-15)


class TestProjectionConstant:
    def test_n14(self):
        c = projection_constant(14)
        target = 1.0 / (15.0 * math.pi)
        assert c.contains(target)
        assert c.width < 1e-16


class TestComputeK:
    def _enc(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        return EigenEnclosure(lo, hi)

    def test_single_lambda_two(self):
        k = compute_K(self._enc([2.0], [2.0]))
        # K is an upper-bound construction; a few ulps above 2 is correct
        assert 2.0 <= k.hi < 2.0 + 1e-12

    def test_lambda_below_one(self):
        # the second eigenvalue clears the tail threshold and gives a larger mu
        k = compute_K(self._enc([0.5, 4.0], [0.6, 4.0]))
        assert abs(k.hi - 1.5) < 1e-12

    def test_straddling_one_fails(self):
        with pytest.raises(VerificationFailure):
            compute_K(self._enc([0.9, 3.0], [1.1, 3.5]))

    def test_tail_threshold_enforced(self):
        with pytest.raises(VerificationFailure):
            compute_K(self._enc([1.4], [1.5]), tail_threshold=2.0)

    def test_k_monotone_in_widening(self):
        base = compute_K(self._enc([0.6, 2.5], [0.65, 2.6]))
        wider = compute_K(self._enc([0.58, 2.4], [0.67, 2.7]))
        assert wider.hi >= base.hi - 1e-15


class TestPencilJson:
    def test_endpoints_parse_back_to_stored_values(self):
        lo = np.array([[1.5, -0.1], [-0.1, 2.0 / 3.0]])
        b = IArr(lo, np.nextafter(lo, np.inf))
        pencil = Pencil([(1, 1), (1, 3)], stiffness_intervals([(1, 1), (1, 3)]), b)
        doc = json.loads(json.dumps(pencil.to_json_dict()))
        for k, (elo, ehi) in enumerate(doc["a_diag"]):
            assert float(elo) == pencil.a_diag.lo[k] and float(ehi) == pencil.a_diag.hi[k]
        for i in range(2):
            for j in range(2):
                elo, ehi = doc["b"][i][j]
                assert float(elo) == b.lo[i, j] and float(ehi) == b.hi[i, j]


def sweep_pencil(u, eig_n, cfg, **budgets):
    """The pencil of the eigenvalue problem at p = 3/2 from the pipeline
    sweep's gram matrix, as spectral_K_from_gram builds it."""
    indices = symmetric_indices(eig_n)
    b = pipeline_sweep(u, Fraction(3, 2), indices, cfg, **budgets)[1]
    return Pencil(indices, stiffness_intervals(indices), b)


class TestPipelinePencil:
    def test_small_end_to_end(self):
        u = newton_solve(GalerkinConfig(n_modes=6, tol=1e-10, quad_points=64))
        pencil = sweep_pencil(u, 4, QuadConfig(degree=6, grid_m=4), gram_width=1e-4)
        assert pencil.dim == 4
        assert pencil.indices == symmetric_indices(4)
        lo, hi = verified_discrete_eigs(pencil)
        assert np.all(lo > 0)
        assert np.all(hi >= lo)
        # Rayleigh-Ritz monotonicity: growing the subspace cannot raise the
        # smallest discrete eigenvalue
        pencil6 = sweep_pencil(u, 6, QuadConfig(degree=6, grid_m=4), gram_width=1e-4)
        lo6, hi6 = verified_discrete_eigs(pencil6)
        assert lo6[0] <= hi[0] + 1e-9

    def test_gram_symmetry_overlap(self):
        u = newton_solve(GalerkinConfig(n_modes=4, tol=1e-10, quad_points=48))
        pencil = sweep_pencil(u, 4, QuadConfig(degree=5, grid_m=3))
        b = pencil.b
        for i in range(pencil.dim):
            for j in range(pencil.dim):
                assert b.lo[i, j] <= b.hi[j, i] and b.lo[j, i] <= b.hi[i, j]


class TestConstantHarnessPencil:
    def test_one_mode_lambda(self):
        # constant weight c: A = [pi^2/2], B = [p c^(1/2)/4],
        # lambda^N = 2 pi^2 / (p c^(1/2)); the weight's cosine table is
        # T[0, 0] = c^(1/2) and 0 elsewhere
        c = 4.0
        freqs = gram_indices_freqs([(1, 1)])
        t = IArr.zeros((len(freqs), len(freqs)))
        t[0, 0] = iv_pow(Interval(c), Fraction(1, 2))
        b = gram_from_tables(t, freqs, [(1, 1)], Fraction(3, 2))
        pencil = Pencil([(1, 1)], stiffness_intervals([(1, 1)]), b)
        lo, hi = verified_discrete_eigs(pencil)
        target = 2.0 * math.pi**2 / (1.5 * math.sqrt(c))
        assert lo[0] <= target <= hi[0]
        assert pencil.a_diag[0].item().contains(math.pi**2 / 2.0)
