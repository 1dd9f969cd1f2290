import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import sawspec as sw
from oracles import coeff_b, model_moment_loop, second_moment_loop
from sawspec.correlations import _integrate_reduced, reduce_correlation
from sawspec.errors import ResourceLimitError
from sawspec.moments import _multisets, _second_moment, _support_weights, theoretical_moment

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

    def test_grouped_pair_sum_equals_brute_force(self, mobius_1m):
        # the J_2 regrouping must match the raw double loop exactly
        B = 300
        n = np.arange(B + 1, dtype=float)
        n[0] = 1.0
        g2 = np.gcd.outer(np.arange(B + 1), np.arange(B + 1)).astype(float) ** 2
        for kind, wfun in (
            ("s", 1.0 / n),
            ("R", mobius_1m[: B + 1].astype(float) / n),
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

    def test_degree_above_the_integral_cap_is_refused_first(self):
        # an even ell above MAX_FACTORS = 8 is b_exact's refusal, raised before
        # the multisets are counted: at ell = 2000 a tuple's multiplicity
        # overflowed a float, at 200 every tuple was pruned to 0.0, and 10 and
        # 40 were refused only at the first unpruned tuple
        for ell in (10, 40, 200, 2000):
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError, match=f"ell = {ell} exceeds cap 8"):
                theoretical_moment("s", ell, 2)
            assert time.perf_counter() - start < 0.1
        for ell in (11, 41, 2001):
            assert theoretical_moment("s", ell, 2).value == 0.0

    def test_budget_cap(self):
        # 595 665, 1.1e9 and 9.4e6 support multisets, each above the budget
        # of 300 000, refused before the first is enumerated
        for moment in (
            lambda: theoretical_moment("s", 4, 60),
            lambda: sw.moment_tuple_sum_exact(4, 1000),
            lambda: sw.moment_tuple_sum_exact(6, 100),
        ):
            with pytest.raises(ResourceLimitError, match="multisets exceed budget"):
                moment()

    @pytest.mark.parametrize("ell", [2, 4])
    @pytest.mark.parametrize("kind", ["C", "s", "R"])
    def test_sieve_cap_comes_before_any_length_B_array(self, kind, ell, monkeypatch):
        # with the cap lowered to 1000, B = 1e6 is refused before its 8 MB
        # weights exist
        monkeypatch.setattr(sw.foundations, "MAX_SIEVE_LIMIT", 1000)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="sieve limit 1000000 exceeds"):
                theoretical_moment(kind, ell, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_multiset_budget_comes_before_any_fraction(self, monkeypatch):
        # (4, 1e6): 405 286 support values, 1.1e21 multisets, refused from the
        # int64 denominators alone, with no b(n) or weight built as a Fraction
        built = []
        new = Fraction.__new__

        def spy(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", spy)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="multisets exceed budget"):
            sw.moment_tuple_sum_exact(4, 10**6)
        assert time.perf_counter() - start < 1.0
        assert built == []

    @pytest.mark.parametrize("kind", ["C", "s", "R", "tuple sum"])
    def test_multiset_budget_comes_before_any_support_list(self, kind):
        # at B = 1e6 the support (405 286 to 1e6 values) is counted, not
        # listed, so the refusal peaks at the weights or denominators, below
        # the 10 bytes per entry of the sieve cap; a list of the support
        # first took 27 to 56
        B = 10**6
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="multisets exceed budget"):
                if kind == "tuple sum":
                    sw.moment_tuple_sum_exact(4, B)
                else:
                    theoretical_moment(kind, 4, B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * (B + 1)

    @pytest.mark.parametrize("kind", ["C", "s", "R"])
    def test_support_weights_peak_within_the_sieve_figure(self, kind):
        # the 10 bytes per entry the sieve cap states: kinds s and R divide
        # into one float64 array in place (16 and 17 with a second one), R
        # beside the int8 mu table and one sieve segment
        B = 10**6
        tracemalloc.start()
        try:
            _support_weights(kind, B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * (B + 1)

    def test_second_moment_cap_states_its_own_peak(self):
        # t beside J_2 and its float copy: 25 bytes per entry, not the 10 of
        # the float64 sieve the weights come from
        for kind in ("C", "s", "R"):
            with pytest.raises(ResourceLimitError, match=r"5000000050 bytes"):
                theoretical_moment(kind, 2, 200_000_001)

    @pytest.mark.parametrize("kind", ["C", "s", "R"])
    def test_second_moment_peak_below_the_cap_figure(self, kind):
        B = 10**5
        tracemalloc.start()
        try:
            _second_moment(kind, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * (B + 1)

    @pytest.mark.parametrize("kind", ["C", "s", "R"])
    @pytest.mark.parametrize("B", [1, 2, 3, 4, 8, 9, 10, 15, 16, 17, 1000, 10_000])
    def test_second_moment_slices_match_the_divisor_loop(self, kind, B):
        # B = r^2 - 1, r^2 and r^2 + 1 move sqrt(B) between the two parts
        got = _second_moment(kind, B)
        want = second_moment_loop(_support_weights(kind, B))
        assert got == pytest.approx(want, rel=1e-13)

    def test_reduced_integrals_are_memoised(self):
        # no tuple of 1/n weights, n <= 12, is pruned, so every multiset
        # reaches the memo: one integration per distinct reduced tuple, and a
        # repeat call hits the memo every time
        combos = [combo for combo, _ in _multisets(range(1, 13), 4)]
        reduced = {reduce_correlation(combo)[0] for combo in combos}
        _integrate_reduced.cache_clear()
        first = theoretical_moment("s", 4, 12).value
        info = _integrate_reduced.cache_info()
        assert (info.misses, info.hits) == (len(reduced), len(combos) - len(reduced))
        assert theoretical_moment("s", 4, 12).value == first
        info = _integrate_reduced.cache_info()
        assert (info.misses, info.hits) == (len(reduced), 2 * len(combos) - len(reduced))

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


def _empirical_moments_by_pieces(values, ell_max: int) -> list[float]:
    """Power means from p = 1, p = p * v on each 2^13-sample piece, the
    piece sums of each power added by math.fsum: the reference for the
    in-place powers of empirical_moments."""
    v = np.asarray(values, dtype=float)
    sums = [[] for _ in range(ell_max)]
    for i in range(0, v.size, 1 << 13):
        piece = v[i : i + (1 << 13)]
        p = np.ones_like(piece)
        for piece_sums in sums:
            p = p * piece
            piece_sums.append(float(np.sum(p)))
    return [math.fsum(piece_sums) / v.size for piece_sums in sums]


class TestEmpirical:
    def test_in_place_powers_match_reference_bitwise(self, ck_10007, spec_10007):
        # two pieces each, and the 13 pieces of Rt at y = 100 003
        rtilde = sw.rtilde_samples(sw.build_phi_accumulator(100_003))
        for v in (ck_10007.samples, -math.pi * spec_10007.values[1:], rtilde):
            got = np.array(sw.empirical_moments(v, 6))
            expected = np.array(_empirical_moments_by_pieces(v, 6))
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

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
    b = [Fraction(0)] + [coeff_b(n) for n in range(1, B + 1)]
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
        assert sw.sawtooth_model("C", 0.5, 1) == 0.0
        c = sw.constant_C()[0]
        assert sw.sawtooth_model("C", 0.25, 1) == pytest.approx(-c / 4, abs=1e-12)
        assert sw.sawtooth_model("C", 0.25, 1) == pytest.approx(-0.330081, abs=1e-6)
        # b(2) = 0, b(3) = 1, psi(1/12) = -5/12
        assert sw.sawtooth_model("C", 0.25, 3) == pytest.approx(
            c * (-0.25 - 5.0 / 12.0), abs=1e-12
        )
        assert sw.sawtooth_model("C", 0.25, 3) == pytest.approx(-0.880216, abs=1e-6)

    def test_rejects_bad_kind_or_B(self):
        for kind, B in (("C", 0), ("R", 0), ("x", 5)):
            with pytest.raises(ValueError):
                sw.sawtooth_model(kind, 0.5, B)

    @pytest.mark.parametrize(
        "kind, B, period", [("C", 5, 15), ("s", 4, 12), ("R", 5, 30)]
    )
    def test_mean_square_is_the_second_moment(self, kind, B, period):
        # the midpoint rule, 20 000 points per unit, over one period of the
        # model: psi(u/n) jumps only at integers, which are cell edges
        u = (np.arange(20_000 * period) + 0.5) / 20_000
        mean_square = float(np.mean(sw.sawtooth_model(kind, u, B) ** 2))
        assert abs(mean_square - theoretical_moment(kind, 2, B).value) <= 1e-8

    def test_exact_prelimit_identity(self):
        for ell, B in ((2, 3), (2, 5), (4, 3), (2, 15), (4, 7), (6, 5)):
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

    @pytest.mark.parametrize(
        "ell, B",
        [(ell, B) for ell in range(1, 7) for B in (1, 2, 3, 5, 7, 11)] + [(2, 13)],
    )
    def test_power_sum_matches_the_fraction_loop(self, ell, B):
        assert sw.continuous_model_moment_exact(ell, B) == model_moment_loop(ell, B)

    def test_power_sum_in_no_time(self):
        # L = 15 015, the largest period the cap admits
        start = time.perf_counter()
        sw.continuous_model_moment_exact(2, 15)
        assert time.perf_counter() - start < 0.1

    def test_lcm_cap(self):
        with pytest.raises(ResourceLimitError):
            sw.continuous_model_moment_exact(2, 60)

    @pytest.mark.parametrize("B", [17, 20_000, 100_000])
    def test_period_cap_raises_before_the_coefficients(self, B, monkeypatch):
        # 3*5*7*11*13*17 = 255255 passes the cap at p = 17; the message names
        # no period, which for large B has more digits than int -> str allows
        def refuse(limit):
            raise AssertionError("coeff_b_denominators called before the cap")

        monkeypatch.setattr(sw.moments, "coeff_b_denominators", refuse)
        with pytest.raises(ResourceLimitError, match="from the prime 17 on"):
            sw.continuous_model_moment_exact(4, B)
