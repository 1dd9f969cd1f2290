import inspect
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sawspec as sw
from sawspec.correlations import _integrate_reduced, _poly_int_bound, reduce_correlation
from sawspec.errors import ResourceLimitError
from sawspec.foundations import factorize
from oracles import integrate_whole_period, reduce_correlation_by_factors

# four primes near 1e14: each divides one modulus only, so the whole tuple
# reduces to (1, 1, 1, 1)
_BIG_PRIMES = (100000000000031, 100000000000067, 100000000000097, 100000000000099)


def _integrate_by_interval(moduli, period):
    """The mean of prod psi(x/n_j) over [0, period), one unit interval at a
    time in plain Python integers: the oracle for the array route."""
    ell = len(moduli)
    weight_lcm = math.lcm(*range(1, ell + 2))
    weights = [weight_lcm // (i + 1) for i in range(ell + 1)]
    denom = weight_lcm * period
    for n in moduli:
        denom *= 2 * n
    total = 0
    for m in range(period):
        coeffs = [1]
        for n in moduli:
            e = 2 * (m % n) - n
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] += c * e
                nxt[i + 1] += 2 * c
            coeffs = nxt
        total += sum(c * w for c, w in zip(coeffs, weights))
    return Fraction(total, denom)


class TestExact:
    def test_pair_closed_form(self):
        assert sw.b_exact((1, 2)) == Fraction(1, 24)
        assert sw.b_exact((2, 3)) == Fraction(1, 72)
        assert sw.b_exact((1, 1)) == Fraction(1, 12)
        assert sw.b_exact((6, 10)) == Fraction(4, 12 * 60)

    def test_odd_counts_vanish(self):
        assert sw.b_exact((1,)) == 0
        assert sw.b_exact((1, 1, 1)) == 0
        assert sw.b_exact((3, 5, 7)) == 0

    def test_quadruple_values(self):
        # int_0^1 (x - 1/2)^4 dx = 1/80; the single-prime reduction gives
        # the (3,1,1,1) value as a third of it
        assert sw.b_exact((1, 1, 1, 1)) == Fraction(1, 80)
        assert sw.b_exact((3, 1, 1, 1)) == Fraction(1, 240)

    def test_reduction_matches_direct_integration(self):
        # integrate (3,1,1,1) without reduction over its true period 3
        direct = _integrate_reduced((1, 1, 1, 3), 3)
        assert direct == sw.b_exact((3, 1, 1, 1)) == Fraction(1, 240)
        # averaging over the full modulus product instead of the lcm period
        # must give the same mean
        assert _integrate_reduced((2, 2, 3, 3), 36) == _integrate_reduced(
            (2, 2, 3, 3), 6
        )

    @given(
        st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=4)
    )
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, mods):
        import random

        shuffled = mods[:]
        random.Random(0).shuffle(shuffled)
        assert sw.b_exact(tuple(mods)) == sw.b_exact(tuple(shuffled))

    def test_reduction_consistency_random(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            base = [int(rng.integers(1, 5)) for _ in range(4)]
            p = int(rng.choice([5, 7, 11]))
            j = int(rng.integers(0, 4))
            lifted = base[:]
            lifted[j] *= p  # p divides exactly one modulus
            assert sw.b_exact(tuple(lifted)) == sw.b_exact(tuple(base)) / p

    def test_prop_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            mods = tuple(int(v) for v in rng.integers(1, 9, 4))
            val = sw.b_exact(mods)
            # r: the product of the primes that occur once in prod n_j
            exponents: dict[int, int] = {}
            for n in mods:
                for p, e in factorize(n):
                    exponents[p] = exponents.get(p, 0) + e
            r = math.prod(p for p, e in exponents.items() if e == 1)
            assert abs(val) <= Fraction(1, 2 ** len(mods) * r)

    def test_big_coefficient_route_matches_integer_loop(self):
        # the coefficient bound over the whole period passes 2**62 here, so the
        # period runs in int64 blocks of 2^8 unit intervals (three of 256, then
        # 232)
        mods, period = (97, 97, 98, 98, 99, 99, 100, 100), 1000
        assert _poly_int_bound(mods, period) >= 2**62
        assert _poly_int_bound(mods, 1 << 8) < 2**62
        assert _integrate_reduced(mods, period) == _integrate_by_interval(mods, period)

    def test_object_route_in_blocks_matches_integer_loop(self):
        # the bound passes 2**62 even over a block of 2^8 unit intervals, so
        # the blocks (three of 256, then 232) hold Python integers
        mods, period = (197, 197, 198, 198, 199, 199, 200, 200), 1000
        assert _poly_int_bound(mods, 1 << 8) >= 2**62
        assert _integrate_reduced(mods, period) == _integrate_by_interval(mods, period)

    @pytest.mark.parametrize(
        "mods, period",
        [
            ((97, 97, 98, 98, 99, 99, 100, 100), 1000),
            ((999, 999, 1000, 1000, 1, 1, 1, 1), 70_000),
            ((5, 5, 11, 11, 25, 25, 121, 121), 3025),
        ],
    )
    def test_int64_blocks_match_whole_period(self, mods, period):
        # the bound is prod (n_j + 2) per unit interval, with no factor for the
        # weights, which multiply only Python integers.  The first two tuples
        # ran on Python integers under the bound with that factor, the third in
        # two blocks; now each runs in int64 blocks (of 2^8, 2^12 and 3025
        # intervals) and gives the Python-integer oracle's Fraction
        assert _poly_int_bound(mods, 1 << 8) < 2**62
        assert _integrate_reduced.__wrapped__(mods, period) == integrate_whole_period(mods, period)

    @pytest.mark.parametrize(
        "mods",
        [(5, 5, 11, 11, 25, 25, 121, 121), (1, 1, 1, 1, 199, 199, 200, 200), (6, 10, 15, 30), (2, 3, 4, 6, 8, 12)],
    )
    def test_blocks_match_whole_period(self, mods):
        period = math.lcm(*mods)
        assert _integrate_reduced.__wrapped__(mods, period) == integrate_whole_period(mods, period)

    def test_blocks_hold_no_array_over_the_period(self):
        # period 39 800: the whole-period arrays peaked at 28.7 MB; blocks of
        # 2^12 unit intervals peak near 0.65 MB
        mods, period = (1, 1, 1, 1, 199, 199, 200, 200), 39_800
        tracemalloc.start()
        try:
            value = _integrate_reduced.__wrapped__(mods, period)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert value == integrate_whole_period(mods, period)

    def test_lcm_cap(self):
        # reduced period lcm(1000, 1001) = 1 001 000, just above the fixed cap
        with pytest.raises(ResourceLimitError, match="reduced period 1001000 exceeds cap 1000000"):
            sw.b_exact((1000, 1000, 1001, 1001))

    def test_period_at_the_cap_is_integrated(self, monkeypatch):
        # the cap refuses periods above MAX_PERIOD, not at it
        monkeypatch.setattr(sw.correlations, "_integrate_reduced", lambda m, p: Fraction(p))
        assert sw.correlations.MAX_PERIOD == 10**6
        assert sw.b_exact((1000, 1000, 1000, 10**6)) == 10**6

    def test_cap_is_fixed(self):
        assert list(inspect.signature(sw.b_exact).parameters) == ["moduli"]

    def test_period_cap_refuses_before_any_array(self):
        # the reduced period 9 699 690 is refused before its coefficient rows exist
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="9699690 exceeds cap 1000000"):
                sw.b_exact((2310, 2730, 2431, 646, 57, 15))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_degree_cap(self):
        with pytest.raises(ResourceLimitError, match="degree ell = 10 exceeds cap 8"):
            sw.b_exact((1,) * 10)

    def test_rejects_bad_moduli(self):
        with pytest.raises(ValueError):
            sw.b_exact((0, 2))
        with pytest.raises(ValueError):
            sw.b_exact(())


class TestReductionKey:
    def test_key_fields(self):
        moduli, scalar = reduce_correlation((3, 1, 1, 1))
        assert moduli == (1, 1, 1, 1)
        assert scalar == Fraction(1, 3)
        assert math.lcm(*moduli) == 1

    def test_prime_power_extraction(self):
        _, scalar = reduce_correlation((9, 6, 2))
        # 3 divides 9 and 6: kept; 2 divides 6 and 2: kept
        assert scalar == 1
        moduli, scalar = reduce_correlation((25, 2, 2))
        assert scalar == Fraction(1, 25)
        assert moduli == (1, 2, 2)

    def test_gcds_match_the_factorization(self):
        rng = np.random.default_rng(20)
        for _ in range(5000):
            ell = int(rng.integers(1, 9))
            mods = tuple(int(n) for n in rng.integers(1, 401, ell))
            assert reduce_correlation(mods) == reduce_correlation_by_factors(mods), mods

    def test_gcds_match_the_factorization_with_large_primes(self):
        # primes near 1e12, alone, times a small modulus or shared by two
        # moduli, mixed with small moduli
        p, r = 999999999989, 1000000000039
        for mods in [
            (p, 3, 5, 15),
            (p, p, 2, 4),
            (3 * p, 5 * p, 9, 25),
            (p, r, 6, 10),
            (2 * p, 3 * r, p, 6),
            (7 * r, 7, 7, 1, 12, 18),
        ]:
            assert reduce_correlation(mods) == reduce_correlation_by_factors(mods), mods

    def test_no_factorization(self, monkeypatch):
        def refuse(n):
            raise AssertionError("factorize called")

        monkeypatch.setattr(sw.foundations, "factorize", refuse)
        monkeypatch.setattr(sw.correlations, "factorize", refuse, raising=False)
        assert reduce_correlation((25, 2, 2)) == ((1, 2, 2), Fraction(1, 25))
        assert sw.b_exact((3, 1, 1, 1)) == Fraction(1, 240)
        assert sw.b_exact(_BIG_PRIMES) == Fraction(1, 80 * math.prod(_BIG_PRIMES))

    def test_large_primes_in_no_time(self):
        # reduced by gcds alone: trial division to sqrt(1e14) takes seconds
        start = time.perf_counter()
        value = sw.b_exact(_BIG_PRIMES)
        assert time.perf_counter() - start < 0.1
        assert value == Fraction(1, 80 * math.prod(_BIG_PRIMES))

    def test_every_prime_shared_after_reduction(self):
        moduli, _ = reduce_correlation((4, 6, 35, 10, 9))
        for p in (2, 3, 5, 7):
            dividing = sum(1 for n in moduli if n % p == 0)
            assert dividing != 1


class TestLattice:
    def test_pair_convergence_to_closed_form(self):
        assert abs(sw.b_lattice_estimate((1, 1), 100) - 1 / 12) <= 1e-3
        assert abs(sw.b_lattice_estimate((2, 3), 200) - 1 / 72) <= 1e-3

    def test_rejects_odd_count(self):
        with pytest.raises(ValueError):
            sw.b_lattice_estimate((1, 2, 3), 50)

    def test_rejects_moduli_below_one(self):
        # (0, 3) divided by zero, and (-2, 3) returned the negated (2, 3) value
        for moduli in ((0, 3), (-2, 3)):
            with pytest.raises(ValueError, match="moduli must be positive integers"):
                sw.b_lattice_estimate(moduli, 10)

    def test_budget(self):
        with pytest.raises(ResourceLimitError) as exc:
            sw.b_lattice_estimate((1, 1, 1, 1), 10**6)
        assert str(exc.value) == (
            "lattice enumeration of (2K)^(ell-1) = 8000000000000000000 points "
            "exceeds budget 20000000"
        )

    def test_int64_bound(self):
        # n_last K sum_j D/n_j must stay below 2^63: at 5 n = 2^64 + 4 the
        # constraint wrapped to 4 and the estimate read 3.2e-3 for 2.3e-20
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                sw.b_lattice_estimate((1, 3689348814741910324), 10)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (
            "the lattice sum needs n_last K sum_j D/n_j = 36893488147419103240 "
            "below 2^63 for its int64 arithmetic"
        )
        # just below the bound it runs: no lattice point has |k_2| = n |k_1| <= K
        n = 2**63 // 10
        assert sw.b_lattice_estimate((1, n), 10) == 0.0
        with pytest.raises(ValueError, match="below 2\\^63"):
            sw.b_lattice_estimate((1, n + 1), 10)

    def test_monotone_convergence(self):
        for mods in ((1, 1), (2, 3), (1, 2)):
            exact = float(sw.b_exact(mods))
            errs = [
                abs(sw.b_lattice_estimate(mods, K) - exact)
                for K in (50, 100, 200, 400)
            ]
            assert errs[0] >= errs[1] >= errs[2] >= errs[3]

    def test_quadruple(self):
        est = sw.b_lattice_estimate((1, 1, 1, 1), 40)
        assert abs(est - 1 / 80) <= 2e-3

    def test_peak_does_not_grow_with_K(self):
        # the last coordinate runs in blocks of 2^16 values: at K = 1e6 the
        # whole 2K-value arrays took 57 bytes per lattice point, 114 MB
        tracemalloc.start()
        try:
            est = sw.b_lattice_estimate((1, 1), 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak
        assert abs(est - 1 / 12) <= 1e-6


class TestDiscrete:
    def test_hand_value_q7(self):
        assert sw.discrete_correlation(7, (1, 1)) == pytest.approx(5 / 98, abs=1e-15)

    def test_large_q_limit(self):
        for q in (1009, 10007):
            err = abs(sw.discrete_correlation(q, (1, 1)) - 1 / 12)
            assert err <= 10 * (2 / q) * math.log(math.e * q / 2)

    def test_substitution_invariance(self):
        q = 101
        base = sw.discrete_correlation(q, (1, 1))
        for n in (2, 3, 7):
            assert sw.discrete_correlation(q, (n, n)) == pytest.approx(base, abs=1e-12)

    def test_precondition(self):
        with pytest.raises(ValueError):
            sw.discrete_correlation(101, (6, 6, 6, 6))  # K = 216 >= q/ell
        with pytest.raises(ValueError):
            sw.discrete_correlation(7, (7, 1))

    def test_moduli_sharing_a_factor_with_q(self):
        # 2 and 3 are not multiples of 100, but neither is invertible mod 100
        with pytest.raises(ValueError, match="coprime"):
            sw.discrete_correlation(100, (2, 3))
