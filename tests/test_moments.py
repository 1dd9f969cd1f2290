import math
from fractions import Fraction

import numpy as np
import pytest

import sawspec as sw
from sawspec.errors import ResourceLimitError
from sawspec.foundations import coeff_b_fractions
from sawspec.moments import _multisets, theoretical_moment

HALF_INV_PI2 = 1.0 / (2.0 * math.pi**2)
SPECTRUM_SECOND = 5.0 * math.pi**2 / 144.0  # gcd-sum identity zeta(2)^3/zeta(4)/144


class TestTheoretical:
    def test_odd_moments_vanish(self):
        for kind in ("C", "s", "R"):
            for ell in (1, 3, 5):
                assert theoretical_moment(kind, ell, 50).value == 0.0

    @pytest.mark.parametrize("kind", ["C", "s", "R"])
    def test_single_term_support(self, kind):
        # B = 1 leaves the tuple (1, ..., 1) alone, weight 1 for every kind:
        # the integrals of psi^2 and psi^4 over a period, 1/12 and 1/80
        scale = sw.constant_C()[0] if kind == "C" else 1.0
        assert theoretical_moment(kind, 2, 1).value == pytest.approx(
            scale**2 / 12, rel=1e-15
        )
        assert theoretical_moment(kind, 4, 1).value == pytest.approx(
            scale**4 / 80, rel=1e-15
        )

    def test_totient_second_moment_benchmark(self):
        est = theoretical_moment("R", 2, 10**4)
        assert est.value == pytest.approx(HALF_INV_PI2, rel=1e-2)

    def test_spectrum_second_moment_benchmark(self):
        est = theoretical_moment("s", 2, 10**4)
        assert est.value == pytest.approx(SPECTRUM_SECOND, rel=5e-3)

    def test_grouped_pair_sum_equals_brute_force(self, sieves_1m):
        # the J_2 regrouping must match the raw double loop exactly
        B = 300
        n = np.arange(B + 1, dtype=float)
        n[0] = 1.0
        g2 = np.gcd.outer(np.arange(B + 1), np.arange(B + 1)).astype(float) ** 2
        for kind, wfun in (
            ("s", 1.0 / n),
            ("R", sieves_1m.mobius[: B + 1].astype(float) / n),
        ):
            w = wfun / n  # w(n)/n
            w[0] = 0.0
            brute = float((np.outer(w, w) * g2).sum()) / 12.0
            grouped = theoretical_moment(kind, 2, B).value
            assert grouped == pytest.approx(brute, abs=1e-15)

    def test_bias_second_moment_stabilizes(self):
        # the truncated series converges like c/B with c ~ 1.9 (measured);
        # deltas must shrink and stay inside the calibrated envelope
        m500 = theoretical_moment("C", 2, 500).value
        m1000 = theoretical_moment("C", 2, 1000).value
        m2000 = theoretical_moment("C", 2, 2000).value
        assert abs(m1000 - m500) < 2.5e-3
        assert abs(m2000 - m1000) < abs(m1000 - m500)

    def test_higher_moment_growth_band(self):
        for ell in (2, 4, 6):
            est = theoretical_moment("C", ell, 30)
            ratio = est.value ** (1.0 / ell) / math.log(ell)
            assert 0.3 <= ratio <= 1.6

    def test_budget_cap(self):
        with pytest.raises(ResourceLimitError):
            theoretical_moment("s", 4, 60)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            theoretical_moment("x", 2, 10)


class TestMultisets:
    @pytest.mark.parametrize("s, ell", [(1, 4), (2, 1), (3, 2), (4, 4), (5, 3), (6, 6)])
    def test_multiplicities_count_ordered_tuples(self, s, ell):
        # each multiset stands for its distinct orderings, so the
        # multiplicities add up to the s^ell ordered tuples
        assert sum(mult for _, mult in _multisets(range(s), ell)) == s**ell

    def test_multiplicity_is_orderings(self):
        for combo, mult in _multisets((1, 3, 5, 7), 4):
            orderings = math.factorial(4)
            for n in set(combo):
                orderings //= math.factorial(combo.count(n))
            assert mult == orderings


class TestEmpirical:
    def test_plus_minus_one(self):
        assert sw.empirical_moments([1.0, -1.0], 2) == [0.0, 1.0]

    def test_odd_moments_on_ck(self, ck_10007):
        v = ck_10007.samples
        moms = sw.empirical_moments(v, 5)
        for ell in (1, 3, 5):
            scale = float(np.mean(np.abs(v) ** ell))
            assert abs(moms[ell - 1]) <= 1e-12 * scale

    def test_ck_second_moment_vs_theory(self, ck_10007):
        q = ck_10007.q
        emp = float(np.sum(ck_10007.samples**2)) / q
        theory = theoretical_moment("C", 2, 1000).value
        assert emp == pytest.approx(theory, rel=0.10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sw.empirical_moments([], 2)


def _model_moment_over_lcm(ell: int, B: int) -> Fraction:
    """The exact model moment averaged over lcm(1..B), a multiple of the
    model's period, one unit interval at a time."""
    L = math.lcm(*range(1, B + 1))
    b = coeff_b_fractions(B)
    support = [n for n in range(1, B + 1) if b[n]]
    slope = sum(b[n] / n for n in support)
    half = Fraction(1, 2)
    total = Fraction(0)
    for m in range(L):
        base = sum(b[n] * (Fraction(m % n, n) - half) for n in support)
        total += ((base + slope) ** (ell + 1) - base ** (ell + 1)) / (ell + 1)
    return total / slope / L


class TestContinuousModel:
    def test_point_values(self):
        assert sw.continuous_model_eval(0.5, 1) == 0.0
        c = sw.constant_C()[0]
        assert sw.continuous_model_eval(0.25, 1) == pytest.approx(-c / 4, abs=1e-12)
        assert sw.continuous_model_eval(0.25, 1) == pytest.approx(-0.330081, abs=1e-6)
        # b(2) = 0, b(3) = 1, psi(1/12) = -5/12
        assert sw.continuous_model_eval(0.25, 3) == pytest.approx(
            c * (-0.25 - 5.0 / 12.0), abs=1e-12
        )
        assert sw.continuous_model_eval(0.25, 3) == pytest.approx(-0.880216, abs=1e-6)

    def test_exact_prelimit_identity(self):
        for ell, B in ((2, 3), (2, 5), (4, 3)):
            lhs = sw.continuous_model_moment_exact(ell, B)
            rhs = sw.moment_tuple_sum_exact(ell, B)
            assert lhs == rhs

    @pytest.mark.parametrize("B", range(1, 11))
    @pytest.mark.parametrize("ell", [2, 4])
    def test_period_matches_lcm_span(self, ell, B):
        # b lives on odd squarefree n, so the model's period is the product
        # of the odd primes <= B; lcm(1..B) is a multiple of it
        expected = _model_moment_over_lcm(ell, B)
        assert sw.continuous_model_moment_exact(ell, B) == expected

    def test_known_small_case(self):
        # B(1,1) + 2 B(1,3) + B(3,3) = 1/12 + 2/36 + 1/12 = 2/9
        assert sw.continuous_model_moment_exact(2, 3) == Fraction(2, 9)

    def test_odd_power_exactly_zero(self):
        assert sw.continuous_model_moment_exact(3, 4) == 0

    def test_lcm_cap(self):
        with pytest.raises(ResourceLimitError):
            sw.continuous_model_moment_exact(2, 60)

    @pytest.mark.parametrize("B", [17, 20_000, 100_000])
    def test_period_cap_raises_before_the_coefficients(self, B, monkeypatch):
        # 3*5*7*11*13*17 = 255255 passes the cap at p = 17; the message names
        # no period, which for large B has more digits than int -> str allows
        def refuse(limit):
            raise AssertionError("coeff_b_fractions called before the cap")

        monkeypatch.setattr(sw.moments, "coeff_b_fractions", refuse)
        with pytest.raises(ResourceLimitError, match="from the prime 17 on"):
            sw.continuous_model_moment_exact(4, B)
