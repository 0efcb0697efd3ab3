"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them inline);
a failing assertion is the FAIL signal.  Criterion 7 runs the full-scale
pipeline once (module-scoped, a couple of minutes) and its artifacts are
shared by the dependent checks.
"""

import json
import math
import operator
import statistics
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from powcert.certify import (
    delta_from_residual,
    embedding_constant,
    find_alpha,
    g_coefficient,
    poincare_c2,
)
from powcert.cli import RunConfig, run_pipeline
from powcert.galerkin import FourierApproximation, odd_modes
from powcert.interval import Interval, iv_pow
from powcert.ivarray import IArr
from powcert.psa import ElemFn, PowerSeries1D, ps_compose
from powcert.quad import QuadConfig, Rect, _integrals, integral_power
from powcert.spectral import (
    EigenEnclosure,
    Pencil,
    projection_constant,
    two_sided_bounds,
    verified_discrete_eigs,
)

mpmath.mp.dps = 40

ULP = 2.0**-52


def ok(msg):
    print(f"ACCEPTANCE PASS: {msg}")


# ----------------------------------------------------------------------
# criterion 1: constants
# ----------------------------------------------------------------------

def test_criterion_1_constants():
    c4 = embedding_constant(Fraction(4))
    assert 0.3183098 <= c4.hi <= 0.3183099 + 1e-7
    inv_pi = 1 / mpmath.pi
    assert mpmath.mpf(c4.lo) <= inv_pi <= mpmath.mpf(c4.hi)
    assert abs(c4.mid - float(inv_pi)) <= 1e-9

    c2 = poincare_c2()
    exact = 1 / (mpmath.sqrt(2) * mpmath.pi)
    assert mpmath.mpf(c2.lo) <= exact <= mpmath.mpf(c2.hi)
    assert c2.width <= 1e-12

    cn = projection_constant(14)
    assert cn.contains(1.0 / (15.0 * math.pi))
    ok(
        f"criterion 1 (constants): C4.hi={c4.hi:.10f}, C2 width={c2.width:.2e}, "
        f"C_N(14) contains 1/(15 pi)"
    )


# ----------------------------------------------------------------------
# criterion 2: PSA golden suite
# ----------------------------------------------------------------------

def test_criterion_2_psa_golden():
    dom = Interval(0.0, 0.1)
    u = PowerSeries1D.from_floats([1.0, 2.0, -3.0], dom)
    v = PowerSeries1D.from_floats([1.0, -1.0, 1.0], dom)

    def within(c, lo, hi, ulps=4):
        tol = ulps * ULP * max(1.0, abs(lo), abs(hi))
        assert abs(c.lo - lo) <= tol and abs(c.hi - hi) <= tol, (c, lo, hi)

    s = u + v
    for i, val in ((0, 2.0), (1, 1.0), (2, -2.0)):
        within(s.coeffs[0, i].item(), val, val)
    d = u - v
    for i, val in ((0, 0.0), (1, 3.0), (2, -4.0)):
        within(d.coeffs[0, i].item(), val, val)
    m = u * v
    within(m.coeffs[0, 0].item(), 1.0, 1.0)
    within(m.coeffs[0, 1].item(), 1.0, 1.0)
    within(m.coeffs[0, 2].item(), -4.0, -3.5)
    lg = ps_compose(ElemFn.log(), u)
    c2 = lg.coeffs[0, 2].item()
    target_hi = float(Fraction(-143, 36))
    assert c2.lo <= -5.0 + 16 * ULP * 5 and c2.hi >= target_hi - 16 * ULP * 4
    within(c2, -5.0, target_hi, ulps=16)
    ok("criterion 2 (PSA golden): sum/difference/product/log all reproduce")


# ----------------------------------------------------------------------
# criterion 3: interval-order integration
# ----------------------------------------------------------------------

def test_criterion_3_interval_order():
    # [0.8, 1] x over [-1, 1] x [0, 1] through the sweep's corner
    # integration, one model of one rectangle
    r = Rect.make(-1, 1, 0, 1)
    c = IArr(np.array([[[0.0], [0.8]]]), np.array([[[0.0], [1.0]]]))
    v = _integrals(c, [(slice(0, 1), r)], Fraction(0))[0].item()
    assert v.contains(Interval(-0.1, 0.1))
    assert v.width <= 0.2 + 1e-12
    ok(f"criterion 3 (interval-order): enclosure {v}, width {v.width:.3e}")


# ----------------------------------------------------------------------
# criterion 4: quadrature oracle suite
# ----------------------------------------------------------------------

def _random_eta(rng, n_max=5):
    modes = list(odd_modes(n_max))
    d = {(1, 1): rng.uniform(1.0, 3.0)}
    for i in modes:
        for j in modes:
            if (i, j) != (1, 1):
                d[(i, j)] = rng.uniform(-1.0, 1.0) * 0.08 * d[(1, 1)] / (i * j)
    c = np.zeros((len(modes), len(modes)))
    for (i, j), a in d.items():
        c[modes.index(i), modes.index(j)] = a
    return FourierApproximation(n_max, c), d


def _mp_integral_sqrt(d, xi_d):
    def f(x, y):
        eta = sum(
            a * mpmath.sin(i * mpmath.pi * x) * mpmath.sin(j * mpmath.pi * y)
            for (i, j), a in d.items()
        )
        xi = 1 if xi_d is None else sum(
            a * mpmath.sin(i * mpmath.pi * x) * mpmath.sin(j * mpmath.pi * y)
            for (i, j), a in xi_d.items()
        )
        return mpmath.sqrt(eta) * xi

    return mpmath.quad(f, [0, 1], [0, 1])


@pytest.mark.slow
def test_criterion_4_quadrature_oracle_suite():
    rng = np.random.default_rng(2024)
    cfg = QuadConfig(degree=6, grid_m=16, workers=4)
    rel_widths = []
    n_cases = 20
    saved_dps = mpmath.mp.dps
    mpmath.mp.dps = 15  # tanh-sinh then resolves ~1e-15, beyond the 1e-12 need
    try:
        for case in range(n_cases):
            eta, d = _random_eta(rng)
            use_xi = case % 2 == 1
            xi = eta if use_xi else None
            xi_d = d if use_xi else None
            val = integral_power(eta, xi, Fraction(1, 2), cfg)
            oracle = _mp_integral_sqrt(d, xi_d)
            assert mpmath.mpf(val.lo) <= oracle <= mpmath.mpf(val.hi), (case, val, oracle)
            rel_widths.append(val.width / max(abs(float(oracle)), 1e-12))
    finally:
        mpmath.mp.dps = saved_dps
    med = statistics.median(rel_widths)
    if med > 1e-3:
        warnings.warn(f"best-effort width target missed: median rel width {med:.2e}")
    ok(
        f"criterion 4 (quadrature oracle): {n_cases}/{n_cases} contained, "
        f"median relative width {med:.2e}"
    )


# ----------------------------------------------------------------------
# criterion 5: eigen-enclosure oracle
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_5_eigen_oracle():
    rng = np.random.default_rng(5)
    checked = 0
    for trial in range(100):
        dim = int(rng.integers(1, 7))
        r = rng.standard_normal((dim, dim))
        a = r @ r.T + dim * np.eye(dim)
        r2 = rng.standard_normal((dim, dim))
        b = r2 @ r2.T + dim * np.eye(dim)
        pencil = Pencil(
            [(2 * i + 1, 1) for i in range(dim)],
            IArr.exact(np.diag(a).copy()),
            IArr.exact(b),
        )
        full = IArr.exact(a)
        pencil.a_full = lambda f=full: f  # type: ignore[method-assign]
        lo, hi = verified_discrete_eigs(pencil)
        if dim == 1:
            ev = [float(mpmath.mpf(a[0, 0]) / mpmath.mpf(b[0, 0]))]
        else:
            am = mpmath.matrix(a.tolist())
            bm = mpmath.matrix(b.tolist())
            ev = sorted(
                float(mpmath.re(v))
                for v in mpmath.eig(bm**-1 * am, left=False, right=False)
            )
        for k in range(dim):
            assert lo[k] <= ev[k] <= hi[k], (trial, k)
            checked += 1

    # worked sandwich instance: 10 / 1.1 to 1e-12
    enc = two_sided_bounds(
        np.array([10.0]), np.array([10.0]), Interval(0.1), Interval(1.0)
    )
    assert abs(enc.lam_lo[0] - 10.0 / 1.1) <= 1e-12
    ok(f"criterion 5 (eigen oracle): {checked} oracle eigenvalues contained; 10/1.1 reproduced")


# ----------------------------------------------------------------------
# criterion 6: existence-test arithmetic
# ----------------------------------------------------------------------

def test_criterion_6_alpha_arithmetic():
    delta = Interval(0.1871519)
    k = Interval(2.0000005)
    c = g_coefficient(Fraction(3, 2))
    res = find_alpha(delta, k, c, Fraction(3, 2))
    assert res.alpha <= 0.391
    assert res.residual_margin.lo >= 0.0
    assert res.contraction.hi < 1.0
    # hand oracle at the published r1
    val = 0.3909193 / 2.0000005 - (c.mid / 1.5) * 0.3909193**1.5
    assert abs(val - 0.1871519) < 1e-5
    ok(f"criterion 6 (existence test): verified alpha = {res.alpha:.7f} <= 0.391")


# ----------------------------------------------------------------------
# criterion 7: end-to-end reference-value reproduction
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def full_certificate():
    cfg = RunConfig()  # N_u = 60, N = 14, M = 16, degree 10
    return run_pipeline(cfg)


@pytest.mark.slow
def test_criterion_7_table_reproduction(full_certificate):
    cert = full_certificate
    assert cert.valid, cert.status
    res = cert.res_norm
    reference = Interval(0.8311281, 0.8314938)
    band = Interval(reference.lo - 0.01, reference.hi + 0.01)
    assert res.overlaps(band)
    assert cert.delta.hi <= 0.20
    assert cert.k_bound.hi <= 2.01
    assert cert.alpha_r1 <= 0.40
    assert cert.r2.hi <= 1.20
    assert cert.positive
    assert cert.neg_part_bound.hi < 2 * math.pi**2
    assert cert.amplitude.overlaps(Interval(575.15, 575.61))
    assert cert.recheck()
    ok(
        "criterion 7 (reference values): residual {} delta<={:.7f} K<={:.7f} r1={:.7f} "
        "r2<={:.7f} neg-part<={:.7f} valid certificate".format(
            res,
            cert.delta.hi,
            cert.k_bound.hi,
            cert.alpha_r1,
            cert.r2.hi,
            cert.neg_part_bound.hi,
        )
    )


# ----------------------------------------------------------------------
# criterion 8: property suites
# ----------------------------------------------------------------------

def test_criterion_8a_power_difference_inequality():
    rng = np.random.default_rng(81)
    n = 100_000
    a = rng.uniform(-20, 20, n)
    b = rng.uniform(-20, 20, n)
    q = rng.uniform(0.001, 0.999, n)
    lhs = np.abs(np.abs(a + b) ** q - np.abs(a) ** q)
    assert np.all(lhs <= np.abs(b) ** q + 1e-12)
    ok("criterion 8a (power-difference inequality): 1e5 random cases hold")


def test_criterion_8b_psa_containment_sampling():
    # member-function values computed in exact rational arithmetic must land
    # inside the result models' pointwise intervals
    rng = np.random.default_rng(82)
    dom = Interval(-0.2, 0.3)
    checks = 0

    def exact_polyval(coeffs, x):
        fx = Fraction(x)
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * fx + Fraction(float(c))
        return acc

    for _ in range(10):
        ca = rng.uniform(-1.5, 1.5, 6)
        cb = rng.uniform(-1.5, 1.5, 6)
        ua = PowerSeries1D.from_floats(ca, dom)
        ub = PowerSeries1D.from_floats(cb, dom)
        results = {
            "add": (ua + ub, lambda x: exact_polyval(ca, x) + exact_polyval(cb, x)),
            "sub": (ua - ub, lambda x: exact_polyval(ca, x) - exact_polyval(cb, x)),
            "mul": (ua * ub, lambda x: exact_polyval(ca, x) * exact_polyval(cb, x)),
        }
        for name, (model, fn) in results.items():
            for x in rng.uniform(dom.lo, dom.hi, 34):
                exact = fn(x)
                got = model.eval_at(Interval(x))[0].item()
                assert Fraction(got.lo) <= exact <= Fraction(got.hi), name
                checks += 1
    assert checks >= 1000
    ok(f"criterion 8b (PSA containment): {checks} exact member values contained")


def test_criterion_8c_interval_monotonicity():
    rng = np.random.default_rng(83)
    for _ in range(400):
        lo, hi = sorted(rng.uniform(-5, 5, 2))
        a = Interval(lo, hi)
        a2 = Interval(lo - rng.uniform(0, 1), hi + rng.uniform(0, 1))
        lo, hi = sorted(rng.uniform(-5, 5, 2))
        b = Interval(lo, hi)
        b2 = Interval(lo - rng.uniform(0, 1), hi + rng.uniform(0, 1))
        for op in (operator.add, operator.sub, operator.mul):
            assert op(a2, b2).contains(op(a, b))
    ok("criterion 8c (inclusion monotonicity): 400 nested operand pairs")


@pytest.mark.slow
def test_criterion_8d_certificate_determinism():
    def tiny(workers):
        return RunConfig(
            n_modes=6,
            eig_n=4,
            grid_m=3,
            degree=6,
            workers=workers,
            res_width=None,
            gram_width=None,
        )

    c1 = run_pipeline(tiny(1))
    c2 = run_pipeline(tiny(1))
    c3 = run_pipeline(tiny(4))
    assert c1.body_dict() == c2.body_dict() == c3.body_dict()
    ok("criterion 8d (determinism): identical bodies across reruns and worker counts")
