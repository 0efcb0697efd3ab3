"""Constants, existence test, L-inf bound, positivity, certificate."""

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from powcert.errors import UnsupportedError, UsageError, VerificationFailure
from powcert.certify import (
    AlphaSearch,
    ProofCertificate,
    PositivityResult,
    amplitude_enclosure,
    build_certificate,
    delta_from_residual,
    embedding_constant,
    exact_l2_norm,
    failed_certificate,
    find_alpha,
    g_coefficient,
    lambda1_interval,
    linf_bound,
    poincare_c2,
    positivity_check,
    sobolev_constant,
    pointwise_bound_constants,
)
from powcert.galerkin import FourierApproximation
from powcert.interval import Interval

mpmath.mp.dps = 40


class TestConstants:
    def test_c2_value_and_width(self):
        c2 = poincare_c2()
        exact = 1 / (mpmath.sqrt(2) * mpmath.pi)
        assert mpmath.mpf(c2.lo) <= exact <= mpmath.mpf(c2.hi)
        assert c2.width <= 1e-12
        assert abs(c2.mid - 0.2250790790392765) < 1e-12

    def test_c2_defining_identity(self):
        c2 = poincare_c2()
        prod = c2.sqr() * lambda1_interval()
        assert prod.contains(1.0)

    def test_c4_closed_form(self):
        c4 = embedding_constant(Fraction(4))
        inv_pi = 1 / mpmath.pi
        assert mpmath.mpf(c4.lo) <= inv_pi <= mpmath.mpf(c4.hi)
        assert abs(c4.mid - float(inv_pi)) < 1e-9
        # reported upper bound to reproduce
        assert 0.3183098 <= c4.hi <= 0.318309887 + 1e-7

    def test_embedding_domain_errors(self):
        with pytest.raises(UsageError):
            embedding_constant(Fraction(2))
        with pytest.raises(UnsupportedError):
            embedding_constant(Fraction(3))

    def test_sobolev_dispatcher(self):
        assert sobolev_constant(Fraction(2)).contains(poincare_c2().mid)
        assert sobolev_constant(Fraction(3, 2)).contains(poincare_c2().mid)

    def test_linf_constants(self):
        c0, c1, c2 = pointwise_bound_constants()
        assert c0.contains(1.0)
        assert abs(c1.mid - math.sqrt(2.0 / 3.0) * 1.1548) < 1e-12
        assert abs(c2.mid - 0.22361 / 3.0 * math.sqrt(28.0 / 5.0)) < 1e-12


class TestGCoefficient:
    def test_reference_value(self):
        c = g_coefficient(Fraction(3, 2))
        # (3/2) C2^(3/2) C4
        ref = 1.5 * 0.2250790790392765**1.5 * 0.3183098861837907
        assert c.contains(ref)
        assert abs(c.mid - 0.050988) < 5e-6

    def test_invalid_triples(self):
        with pytest.raises(UsageError):
            g_coefficient(Fraction(3, 2), triple=(4, 4, 4))
        with pytest.raises(UsageError):
            g_coefficient(Fraction(11, 10), triple=(4, 4, 2))

    def test_alternate_triple_p_above(self):
        c = g_coefficient(Fraction(7, 4), triple=(2, 4, 4))
        assert c.lo > 0

    def test_monotone_in_constants(self):
        # widening is monotone by construction: c.lo >= 0
        c = g_coefficient(Fraction(3, 2))
        assert c.lo >= 0


class TestPowerDifferenceInequality:
    def test_randomized_inequality(self):
        rng = np.random.default_rng(0)
        n = 100_000
        a = rng.uniform(-10, 10, n)
        b = rng.uniform(-10, 10, n)
        q = rng.uniform(0.01, 0.99, n)
        lhs = np.abs(np.abs(a + b) ** q - np.abs(a) ** q)
        rhs = np.abs(b) ** q
        assert np.all(lhs <= rhs + 1e-12)


class TestFindAlpha:
    REF_DELTA = 0.1871519
    REF_K = 2.0000005

    def _c(self):
        return g_coefficient(Fraction(3, 2))

    def test_reference_instance(self):
        res = find_alpha(
            Interval(self.REF_DELTA),
            Interval(self.REF_K),
            self._c(),
            Fraction(3, 2),
        )
        assert res.alpha <= 0.391
        assert res.residual_margin.lo >= 0.0
        assert res.contraction.hi < 1.0

    def test_hand_oracle_five_decimals(self):
        # alpha/K - (c/p) alpha^(3/2) at the reference r1 reproduces delta
        c = self._c().mid
        alpha = 0.3909193
        val = alpha / self.REF_K - (c / 1.5) * alpha**1.5
        assert abs(val - self.REF_DELTA) < 1e-5

    def test_linear_case(self):
        res = find_alpha(Interval(0.25), Interval(2.0), Interval(0.0), Fraction(3, 2))
        assert abs(res.alpha - 0.5) < 1e-6

    def test_zero_delta(self):
        res = find_alpha(Interval(0.0), Interval(2.0), self._c(), Fraction(3, 2))
        assert res.alpha < 1e-12

    def test_residual_enclosure_from_zero(self):
        # outward rounding of 0 * C2 leaves delta.lo just below 0
        delta = delta_from_residual(Interval(0.0, 1.0), poincare_c2())
        assert delta.lo < 0.0
        res = find_alpha(delta, Interval(2.0), self._c(), Fraction(3, 2))
        assert res.residual_margin.lo >= 0.0

    def test_negative_delta_rejected(self):
        with pytest.raises(UsageError):
            find_alpha(Interval(-1.0, -0.5), Interval(2.0), self._c(), Fraction(3, 2))

    def test_infeasible(self):
        with pytest.raises(VerificationFailure):
            find_alpha(Interval(100.0), Interval(2.0), self._c(), Fraction(3, 2))

    def test_monotone_in_delta(self):
        c = self._c()
        a1 = find_alpha(Interval(0.1), Interval(2.0), c, Fraction(3, 2)).alpha
        a2 = find_alpha(Interval(0.15), Interval(2.0), c, Fraction(3, 2)).alpha
        a3 = find_alpha(Interval(0.15), Interval(2.2), c, Fraction(3, 2)).alpha
        assert a1 < a2 < a3


class TestDelta:
    def test_reference_residual_band(self):
        res = Interval(0.8311281, 0.8314938)
        d = delta_from_residual(res, poincare_c2())
        assert d.hi <= 0.1871519
        assert d.contains(0.8313 * 0.22507908)

    def test_zero_and_monotone(self):
        c2 = poincare_c2()
        assert delta_from_residual(Interval(0.0), c2).contains(0.0)
        d1 = delta_from_residual(Interval(0.5, 0.6), c2)
        d2 = delta_from_residual(Interval(0.4, 0.7), c2)
        assert d2.lo <= d1.lo and d1.hi <= d2.hi


class TestLinfBound:
    def test_zero_inputs_vanish(self):
        r2 = linf_bound(Interval(0.0), Interval(5.0), Interval(0.0), Fraction(3, 2))
        assert abs(r2.hi) < 1e-14

    def test_prefactor_is_one_for_small_p(self):
        # p <= 3/2 means p' <= 1 and the max(1, 2^((p'-1)/2)) factor is 1
        eps = Interval(0.4)
        a = linf_bound(eps, Interval(272.0), Interval(0.83), Fraction(3, 2))
        # manual recomputation
        c0, c1, c2 = pointwise_bound_constants()
        from powcert.interval import iv_pow

        inner = Interval(272.0) + eps / Interval(2.0) * poincare_c2()
        manual = (
            c0 * poincare_c2() * eps
            + c1 * eps
            + c2
            * (
                Interval(1.5) * eps * embedding_constant(Fraction(4)) * iv_pow(inner, Fraction(1, 2))
                + Interval(0.83)
            )
        )
        assert a.overlaps(manual)
        assert abs(a.mid - manual.mid) < 1e-9


class TestL2Norm:
    def test_single_mode(self):
        u = FourierApproximation(1, np.array([[-5.0]]))
        n = exact_l2_norm(u)
        assert n.contains(2.5)
        assert n.width < 1e-12


class TestPositivityAmplitude:
    def _ranges(self, min_lo, max_hi, witness, c_lo):
        return (min_lo, max_hi, witness, c_lo)

    def test_positive_case(self):
        ranges = self._ranges(-0.001, 10.0, 9.0, 9.9)
        res = positivity_check(Interval(1.0), Fraction(3, 2), ranges)
        assert res.verdict
        assert res.neg_part_bound.hi < lambda1_interval().lo

    def test_zero_r2_and_positive_model(self):
        ranges = self._ranges(0.0, 10.0, 5.0, 9.9)
        res = positivity_check(Interval(0.0), Fraction(3, 2), ranges)
        assert res.verdict
        assert res.neg_part_bound.contains(0.0)

    def test_negative_path(self):
        # artificially huge r2: bound exceeds lambda1 and witness fails
        ranges = self._ranges(-0.5, 10.0, 9.0, 9.9)
        res = positivity_check(Interval(500.0), Fraction(3, 2), ranges)
        assert not res.verdict

    def test_amplitude(self):
        ranges = self._ranges(0.0, 7.2, 6.0, 6.9)
        amp = amplitude_enclosure(Interval(0.5), ranges)
        assert amp.contains(7.0)
        assert amp.lo <= 6.9 - 0.5 + 1e-12 and amp.hi >= 7.2 + 0.5 - 1e-12


class TestCertificate:
    BODY_KEYS = {
        "status", "p", "residual_norm", "delta", "K", "g_coefficient", "r1", "r2",
        "neg_part_bound", "positive", "amplitude", "failure", "config",
    }

    def _fake_valid(self):
        c = g_coefficient(Fraction(3, 2))
        alpha = find_alpha(Interval(0.18), Interval(2.0), c, Fraction(3, 2))
        pos = PositivityResult(True, Interval(1.0, 1.1))
        return build_certificate(
            Fraction(3, 2),
            {"n_modes": 4},
            res_norm=Interval(0.79, 0.81),
            delta=Interval(0.17, 0.18),
            k_bound=Interval(1.99, 2.0),
            g_coeff=c,
            alpha=alpha,
            r2=Interval(1.1, 1.15),
            positivity=pos,
            amplitude=Interval(570.0, 580.0),
        )

    def test_valid_roundtrip_and_recheck(self):
        cert = self._fake_valid()
        assert cert.valid
        assert cert.recheck()
        text = cert.to_json()
        back = ProofCertificate.from_json(text)
        assert back.valid
        assert back.recheck()
        assert back.delta.lo == cert.delta.lo and back.delta.hi == cert.delta.hi

    def test_body_deterministic(self):
        c1 = self._fake_valid()
        c2 = self._fake_valid()
        assert c1.body_dict() == c2.body_dict()

    def test_failed_stage(self):
        cert = failed_certificate(Fraction(3, 2), {}, "inverse-bound", "eigs too wide")
        assert cert.status == "failed: inverse-bound"
        assert not cert.valid
        assert not cert.recheck()

    @pytest.mark.parametrize("kind", ["valid", "failed"])
    def test_json_roundtrip_is_identity(self, kind):
        if kind == "valid":
            cert = self._fake_valid()
        else:
            cert = failed_certificate(Fraction(3, 2), {"n_modes": 4}, "delta", "boom")
        assert set(cert.body_dict()) == self.BODY_KEYS
        back = ProofCertificate.from_json(cert.to_json())
        assert back == cert
        assert back.to_json() == cert.to_json()

    def test_missing_key_is_usage_error(self):
        doc = json.loads(self._fake_valid().to_json())
        for key in self.BODY_KEYS - {"failure", "config"}:
            body = {k: v for k, v in doc["certificate"].items() if k != key}
            with pytest.raises(UsageError, match=repr(key)):
                ProofCertificate.from_json(json.dumps({"certificate": body}))

    def test_optional_keys_default(self):
        doc = json.loads(self._fake_valid().to_json())
        del doc["certificate"]["failure"], doc["certificate"]["config"], doc["meta"]
        back = ProofCertificate.from_json(json.dumps(doc))
        assert back.failure is None and back.config == {} and back.timestamp == ""
        assert back.recheck()

    @pytest.mark.parametrize("text", ["[]", '{"meta": {}}', '{"certificate": 3}'])
    def test_not_a_certificate_is_usage_error(self, text):
        with pytest.raises(UsageError):
            ProofCertificate.from_json(text)

    def test_unparseable_document_is_usage_error(self):
        with pytest.raises(UsageError, match="certificate JSON"):
            ProofCertificate.from_json("not json {")
        doc = json.loads(self._fake_valid().to_json())
        doc["meta"] = ["2026-01-01"]
        with pytest.raises(UsageError, match="meta"):
            ProofCertificate.from_json(json.dumps(doc))

    def test_unreadable_interval_is_usage_error(self):
        doc = json.loads(self._fake_valid().to_json())
        doc["certificate"]["delta"] = {"lo": "0.1"}
        with pytest.raises(UsageError, match="'delta'"):
            ProofCertificate.from_json(json.dumps(doc))
