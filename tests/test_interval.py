"""Interval arithmetic: golden cases, oracle containment, monotonicity."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powcert import interval, ivarray
from powcert.errors import IntervalDomainError, UnsupportedError
from powcert.interval import (
    HALF_PI,
    LN2,
    PI,
    SQRT_PI,
    TWO_PI,
    Interval,
    gamma_half,
    iv_arith,
    iv_cos,
    iv_elem,
    iv_pow,
    iv_sin,
)

mpmath.mp.dps = 40

ULP = 2.0**-52


def sin_cos_pi(r):
    """sin(pi r) and cos(pi r) as Intervals: ivarray.sin_cos_pi on a batch
    of one."""
    s, c = ivarray.sin_cos_pi([r])
    return s[0].item(), c[0].item()


def contains_mp(iv, mp_val):
    """mpmath value strictly inside the interval (with exact rational compare)."""
    return mpmath.mpf(iv.lo) <= mp_val <= mpmath.mpf(iv.hi)


def width_ulps(iv, ref):
    scale = max(abs(ref), 1e-300)
    return (iv.hi - iv.lo) / (scale * ULP)


class TestConstructor:
    def test_point(self):
        x = Interval(1.5)
        assert x.lo == x.hi == 1.5

    def test_inverted_raises(self):
        with pytest.raises(IntervalDomainError):
            Interval(2.0, 1.0)

    def test_nonfinite_raises(self):
        with pytest.raises(IntervalDomainError):
            Interval(math.inf)

    def test_from_fraction_outward(self):
        x = Interval.from_fraction(Fraction(1, 3))
        assert Fraction(x.lo) <= Fraction(1, 3) <= Fraction(x.hi)
        assert x.width <= 2 * ULP

    def test_from_fraction_exact(self):
        x = Interval.from_fraction(Fraction(3, 4))
        assert x.lo == x.hi == 0.75


class TestArith:
    def test_add_trivial(self):
        r = iv_arith("add", Interval(1, 2), Interval(3, 4))
        assert r.contains(Interval(4, 6))

    def test_mul_sign_cases(self):
        r = iv_arith("mul", Interval(-1, 2), Interval(3, 4))
        assert r.contains(Interval(-4, 8))

    def test_mul_derived(self):
        # brute force over endpoint products, exact rationals
        a, b = Interval(0.8, 1.0), Interval(0.4, 0.5)
        prods = [
            Fraction(x) * Fraction(y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)
        ]
        r = a * b
        assert Fraction(r.lo) <= min(prods) and max(prods) <= Fraction(r.hi)
        assert r.contains(0.32) and r.contains(0.5)

    def test_div_by_zero_interval(self):
        with pytest.raises(IntervalDomainError):
            iv_arith("div", Interval(1, 2), Interval(-1, 1))

    def test_exact_fraction_oracle_sampled(self):
        rng = np.random.default_rng(42)
        for _ in range(2500):
            a = Interval(*sorted(rng.uniform(-10, 10, 2)))
            b = Interval(*sorted(rng.uniform(-10, 10, 2)))
            for op in ("add", "sub", "mul"):
                r = iv_arith(op, a, b)
                for x in (a.lo, a.hi, a.mid):
                    for y in (b.lo, b.hi, b.mid):
                        fx, fy = Fraction(x), Fraction(y)
                        exact = {
                            "add": fx + fy,
                            "sub": fx - fy,
                            "mul": fx * fy,
                        }[op]
                        assert Fraction(r.lo) <= exact <= Fraction(r.hi)

    def test_soundness_bulk_longdouble(self):
        # 1e6 random operand pairs per op; oracle = 80-bit extended precision
        # with a 2^-60 relative guard band, far finer than any 1-ulp bug.
        rng = np.random.default_rng(7)
        n = 1_000_000
        alo = rng.uniform(-50, 50, n)
        ahi = alo + rng.uniform(0, 1, n)
        blo = rng.uniform(-50, 50, n)
        bhi = blo + rng.uniform(0, 1, n)
        xs = rng.uniform(0, 1, n) * (ahi - alo) + alo
        ys = rng.uniform(0, 1, n) * (bhi - blo) + blo
        guard = np.longdouble(2.0) ** -60

        from powcert.ivarray import IArr

        A = IArr(alo, ahi)
        B = IArr(blo, bhi)
        xl = xs.astype(np.longdouble)
        yl = ys.astype(np.longdouble)
        for op, fn in (
            ("add", lambda u, v: u + v),
            ("sub", lambda u, v: u - v),
            ("mul", lambda u, v: u * v),
        ):
            r = fn(A, B)
            true = fn(xl, yl)
            pad = guard * np.maximum(np.abs(true), 1.0)
            assert np.all(r.lo.astype(np.longdouble) <= true + pad)
            assert np.all(true - pad <= r.hi.astype(np.longdouble))
        # division with denominators away from zero
        B2 = IArr(blo + 60.0, bhi + 60.0)
        y2 = yl + np.longdouble(60.0)
        r = A / B2
        true = xl / y2
        pad = guard * np.maximum(np.abs(true), 1.0)
        assert np.all(r.lo.astype(np.longdouble) <= true + pad)
        assert np.all(true - pad <= r.hi.astype(np.longdouble))

    def test_inclusion_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(1500):
            lo, hi = sorted(rng.uniform(-5, 5, 2))
            pad = rng.uniform(0, 2, 2)
            a = Interval(lo, hi)
            a2 = Interval(lo - pad[0], hi + pad[1])
            lo, hi = sorted(rng.uniform(-5, 5, 2))
            pad = rng.uniform(0, 2, 2)
            b = Interval(lo, hi)
            b2 = Interval(lo - pad[0], hi + pad[1])
            for op in ("add", "sub", "mul"):
                assert iv_arith(op, a, b).is_subset_of(iv_arith(op, a2, b2))


_finite = st.floats(
    min_value=-1e8, max_value=1e8, allow_nan=False, allow_infinity=False
)


class TestHypothesisProperties:
    @given(_finite, _finite, _finite, _finite, st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=300, deadline=None)
    def test_arith_soundness_exact(self, a1, a2, b1, b2, ta, tb):
        a = Interval(min(a1, a2), max(a1, a2))
        b = Interval(min(b1, b2), max(b1, b2))
        xa = Fraction(a.lo) + Fraction(ta) * (Fraction(a.hi) - Fraction(a.lo))
        xb = Fraction(b.lo) + Fraction(tb) * (Fraction(b.hi) - Fraction(b.lo))
        for op, fn in (("add", xa + xb), ("sub", xa - xb), ("mul", xa * xb)):
            r = iv_arith(op, a, b)
            assert Fraction(r.lo) <= fn <= Fraction(r.hi)

    @given(_finite, _finite, st.floats(1e-6, 1e3), st.floats(1e-6, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_sub_add_roundtrip_contains(self, x1, x2, wa, wb):
        a = Interval(min(x1, x2), max(x1, x2) + wa)
        b = Interval(0.0, wb)
        assert ((a + b) - b).contains(a)


class TestPow:
    def test_sqrt_perfect_squares(self):
        r = iv_pow(Interval(4, 9), Fraction(1, 2))
        assert r.contains(Interval(2, 3))
        assert r.width <= (3 - 2) + 4 * 3 * ULP

    def test_sqrt_zero_endpoint(self):
        r = iv_pow(Interval(0.0, 0.04), Fraction(1, 2))
        assert r.lo == 0.0
        exact = mpmath.sqrt(mpmath.mpf(Fraction(0.04).numerator) / Fraction(0.04).denominator)
        assert contains_mp(r, exact)
        assert r.hi <= 0.2 + 1e-15

    def test_three_halves_oracle(self):
        r = iv_pow(Interval(1.0, 1.2), Fraction(3, 2))
        hi_exact = mpmath.power(mpmath.mpf(1.2), mpmath.mpf(1.5))
        assert contains_mp(Interval(r.lo, r.hi), mpmath.mpf(1))
        assert mpmath.mpf(r.lo) <= 1 and hi_exact <= mpmath.mpf(r.hi)
        assert abs(r.hi - 1.3145341380123987) < 1e-12

    def test_integer_matches_repeated_mul(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            lo, hi = sorted(rng.uniform(-3, 3, 2))
            x = Interval(lo, hi)
            for n in (2, 3, 5):
                viaop = iv_pow(x, n)
                ref = x
                for _ in range(n - 1):
                    ref = ref * x
                assert viaop.lo <= ref.lo + 4 * ULP * max(1, abs(ref.lo))
                assert viaop.hi >= ref.hi - 4 * ULP * max(1, abs(ref.hi))

    def test_general_rational_exponent(self):
        x = Interval(2.0, 3.0)
        r = iv_pow(x, Fraction(2, 3))
        lo_exact = mpmath.power(2, mpmath.mpf(2) / 3)
        hi_exact = mpmath.power(3, mpmath.mpf(2) / 3)
        assert mpmath.mpf(r.lo) <= lo_exact and hi_exact <= mpmath.mpf(r.hi)
        assert float(lo_exact - mpmath.mpf(r.lo)) < 1e-13
        assert float(mpmath.mpf(r.hi) - hi_exact) < 1e-13

    def test_negative_base_fractional_raises(self):
        with pytest.raises(IntervalDomainError):
            iv_pow(Interval(-1, 2), Fraction(1, 2))

    def test_negative_exponent(self):
        r = iv_pow(Interval(2, 4), Fraction(-1, 2))
        assert r.contains(0.5) and r.contains(1 / math.sqrt(2))


class TestElem:
    def test_sin_extremum(self):
        r = iv_elem("sin", Interval(0.0, PI.hi))
        assert r.contains(Interval(0, 1))
        assert r.hi == 1.0

    def test_log_one(self):
        assert iv_elem("log", Interval(1.0)).contains(0.0)

    def test_exp_e(self):
        r = iv_elem("exp", Interval(1.0))
        assert contains_mp(r, mpmath.e)
        assert width_ulps(r, math.e) < 20  # Horner accumulation, ~13 ulps

    def test_oracle_sweep(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-30, 30, 1500)
        for x in xs:
            fx = mpmath.mpf(x)
            assert contains_mp(iv_elem("sin", Interval(x)), mpmath.sin(fx))
            assert contains_mp(iv_elem("cos", Interval(x)), mpmath.cos(fx))
        xs = rng.uniform(-50, 50, 800)
        for x in xs:
            assert contains_mp(iv_elem("exp", Interval(x)), mpmath.exp(mpmath.mpf(x)))
        xs = np.exp(rng.uniform(-40, 40, 800))
        for x in xs:
            assert contains_mp(iv_elem("log", Interval(x)), mpmath.log(mpmath.mpf(x)))
            assert contains_mp(iv_elem("sqrt", Interval(x)), mpmath.sqrt(mpmath.mpf(x)))

    def test_interval_sin_ranges(self):
        r = iv_elem("sin", Interval(-0.1, 7.0))  # covers max and min
        assert r.lo == -1.0 and r.hi == 1.0
        r = iv_elem("sin", Interval(0.1, 0.2))
        assert r.hi < 0.21 and r.lo > 0.09

    def test_domain_errors(self):
        with pytest.raises(IntervalDomainError):
            iv_elem("log", Interval(0.0, 1.0))
        with pytest.raises(IntervalDomainError):
            iv_elem("sqrt", Interval(-1.0, 1.0))
        with pytest.raises(UnsupportedError):
            iv_elem("tan", Interval(0.0, 1.0))


# ----------------------------------------------------------------------
# reference: the earlier separate sine and cosine point evaluators and
# range functions, kept to check that the one evaluator selected by phase
# gives the same bits
# ----------------------------------------------------------------------

def ref_sin_point(x):
    if abs(x) > 1e12:
        return Interval(-1.0, 1.0)
    k = round(x / TWO_PI.mid)
    r = Interval(x) - TWO_PI * k
    j = int(round(r.mid / HALF_PI.mid))
    rho = r - HALF_PI * j
    if rho.mag > 0.8:
        return Interval(-1.0, 1.0)
    jm = j % 4
    if jm == 0:
        return interval._sin_core(rho)
    if jm == 1:
        return interval._cos_core(rho)
    if jm == 2:
        return -interval._sin_core(rho)
    return -interval._cos_core(rho)


def ref_cos_point(x):
    if abs(x) > 1e12:
        return Interval(-1.0, 1.0)
    k = round(x / TWO_PI.mid)
    r = Interval(x) - TWO_PI * k
    j = int(round(r.mid / HALF_PI.mid))
    rho = r - HALF_PI * j
    if rho.mag > 0.8:
        return Interval(-1.0, 1.0)
    jm = j % 4
    if jm == 0:
        return interval._cos_core(rho)
    if jm == 1:
        return -interval._sin_core(rho)
    if jm == 2:
        return -interval._cos_core(rho)
    return interval._sin_core(rho)


def ref_sin(x):
    if x.hi - x.lo >= TWO_PI.lo:
        return Interval(-1.0, 1.0)
    a = ref_sin_point(x.lo)
    b = ref_sin_point(x.hi)
    lo = min(a.lo, b.lo)
    hi = max(a.hi, b.hi)
    slack = 1e-9 + abs(x.lo) * 1e-14 + abs(x.hi) * 1e-14
    if interval._crosses(x.lo, x.hi, HALF_PI.mid, slack):
        hi = 1.0
    if interval._crosses(x.lo, x.hi, -HALF_PI.mid, slack):
        lo = -1.0
    return Interval(max(lo, -1.0), min(hi, 1.0))


def ref_cos(x):
    if x.hi - x.lo >= TWO_PI.lo:
        return Interval(-1.0, 1.0)
    a = ref_cos_point(x.lo)
    b = ref_cos_point(x.hi)
    lo = min(a.lo, b.lo)
    hi = max(a.hi, b.hi)
    slack = 1e-9 + abs(x.lo) * 1e-14 + abs(x.hi) * 1e-14
    if interval._crosses(x.lo, x.hi, 0.0, slack):
        hi = 1.0
    if interval._crosses(x.lo, x.hi, PI.mid, slack):
        lo = -1.0
    return Interval(max(lo, -1.0), min(hi, 1.0))


def same_interval_bits(a, b):
    return (a.lo, a.hi, math.copysign(1, a.lo), math.copysign(1, a.hi)) == (
        b.lo, b.hi, math.copysign(1, b.lo), math.copysign(1, b.hi)
    )


class TestTrig:
    def test_same_bits_as_separate_sin_and_cos(self):
        rng = np.random.default_rng(11)
        centres = np.concatenate([
            rng.uniform(-10, 10, 400),
            rng.uniform(-1e4, 1e4, 200),
            rng.choice([-1, 1], 100) * 10.0 ** rng.uniform(-300, 13, 100),
            [0.0, -0.0, HALF_PI.mid, PI.mid, -PI.mid, TWO_PI.mid, 3 * HALF_PI.mid],
        ])
        widths = np.concatenate([[0.0], 10.0 ** rng.uniform(-16, 1, len(centres) - 1)])
        rng.shuffle(widths)
        for c, w in zip(centres, widths):
            for x in (Interval(c), Interval(c, c + w), Interval(c - 7 * w, c)):
                assert same_interval_bits(iv_sin(x), ref_sin(x)), x
                assert same_interval_bits(iv_cos(x), ref_cos(x)), x

    def test_sin_cos_pi_encloses_at_dyadic_rationals(self):
        for j in range(13):
            for k in range(0, 2 ** (j + 1), 1 if j < 9 else 7):
                r = Fraction(k, 2**j)
                s, c = sin_cos_pi(r)
                x = mpmath.mpf(k) / 2**j  # exact
                assert contains_mp(s, mpmath.sinpi(x)) and contains_mp(c, mpmath.cospi(x)), r

    def test_sin_cos_pi_encloses_at_non_dyadic_rationals(self):
        for den in (3, 5, 6, 7, 10, 12, 113, 1000, 3**15):
            for num in range(-2 * den - 3, 2 * den + 4, max(1, den // 40)):
                r = Fraction(num, den)
                s, c = sin_cos_pi(r)
                x = mpmath.mpf(num) / den
                assert contains_mp(s, mpmath.sinpi(x)) and contains_mp(c, mpmath.cospi(x)), r
                assert s.width < 1e-14 and c.width < 1e-14  # a few ulps

    def test_sin_cos_pi_exact_at_multiples_of_half(self):
        cycle = [(0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0)]
        for n in range(-9, 10):
            s, c = sin_cos_pi(Fraction(n, 2))
            want_s, want_c = cycle[n % 4]
            assert same_interval_bits(s, Interval(want_s)) and same_interval_bits(c, Interval(want_c)), n

    def test_sin_cos_pi_same_bits_modulo_two(self):
        for r in (Fraction(1, 3), Fraction(5, 8), Fraction(7, 4), Fraction(-1, 12), Fraction(1, 4), Fraction(3, 4)):
            for shift in (2, -2, 10):
                for a, b in zip(sin_cos_pi(r), sin_cos_pi(r + shift)):
                    assert same_interval_bits(a, b), (r, shift)

    def test_sin_cos_pi_narrower_than_float_reduction(self):
        # reducing pi r in floats loses what the exact reduction keeps
        for r in (Fraction(1, 3), Fraction(7, 24), Fraction(41, 32), Fraction(1023, 1024)):
            theta = PI * Interval.from_fraction(r)
            s, c = sin_cos_pi(r)
            assert s.width <= iv_sin(theta).width and c.width <= iv_cos(theta).width, r


class TestConstants:
    def test_pi_enclosure(self):
        assert contains_mp(PI, mpmath.pi)
        assert PI.width <= 2 * ULP * 4

    def test_half_pi_two_pi(self):
        assert contains_mp(HALF_PI, mpmath.pi / 2)
        assert contains_mp(LN2, mpmath.log(2))
        assert LN2.width < 3e-15

    def test_sqrt_pi(self):
        assert contains_mp(SQRT_PI, mpmath.sqrt(mpmath.pi))


class TestGammaHalf:
    def test_integer(self):
        assert gamma_half(2).contains(1.0)
        assert gamma_half(5).contains(24.0)

    def test_three_halves(self):
        r = gamma_half(Fraction(3, 2))
        assert contains_mp(r, mpmath.gamma(mpmath.mpf(3) / 2))
        assert abs(r.mid - 0.8862269254527580) < 1e-14

    def test_one_half(self):
        r = gamma_half(Fraction(1, 2))
        assert contains_mp(r, mpmath.sqrt(mpmath.pi))
        assert abs(r.mid - 1.7724538509055160) < 1e-14

    def test_unsupported(self):
        with pytest.raises(UnsupportedError):
            gamma_half(Fraction(1, 3))
        with pytest.raises(UnsupportedError):
            gamma_half(Fraction(-1, 2))
