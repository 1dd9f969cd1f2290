import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expi

import sawspec as sw
from sawspec import foundations, primes
from sawspec.bias import Pattern
from sawspec.errors import ResourceLimitError
from sawspec.foundations import prime_array


class TestSieve:
    def test_small(self):
        assert prime_array(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_counts(self):
        assert len(prime_array(10**6)) == 78498

    def test_count_to_1e7(self):
        assert len(prime_array(10**7)) == 664_579

    def test_segment_boundaries_against_miller_rabin(self):
        # the primes <= isqrt(10^7) = 3162 strike out (3162, 10^7] in
        # segments of 2^22 entries; every n within 100 of a segment's ends
        ps = set(prime_array(10**7).tolist())
        ends = [10**7]
        for lo in range(math.isqrt(10**7) + 1, 10**7 + 1, 1 << 22):
            ends += [lo, min(lo + (1 << 22) - 1, 10**7)]
        for end in ends:
            for n in range(end - 100, min(end + 100, 10**7) + 1):
                assert (n in ps) == sw.is_prime(n), n

    def test_small_segments_give_the_same_primes(self, monkeypatch):
        default = prime_array(20000)
        monkeypatch.setattr(foundations, "_SEGMENT", 64)
        assert len(list(foundations.prime_blocks(20000))) > 300
        assert np.array_equal(prime_array(20000), default)


def _brute_census(x, q, r):
    """The windows of r consecutive primes starting at each p <= x, counted
    one by one as residue tuples, those holding the prime q left out."""
    ps = prime_array(x + 1000)
    n_main = int(np.searchsorted(ps, x, side="right"))
    counter = Counter()
    for i in range(n_main):
        window = tuple(int(p % q) for p in ps[i : i + r])
        if 0 not in window:
            counter[window] += 1
    return counter


class TestCensus:
    def test_hand_census_x30(self):
        c = sw.pattern_census(30, 3, 2)
        assert c.count((2, 1)) == 4
        assert c.count((1, 2)) == 3
        assert c.count((2, 2)) == 1
        assert c.count((1, 1)) == 0
        assert c.total_windows == 8

    def test_window_extends_past_x(self):
        # the pair (29, 31) must be included for x = 30
        c = sw.pattern_census(30, 3, 2)
        assert sum(c.counts.values()) == 8

    def test_r1_totals(self):
        x, q = 1000, 7
        c = sw.pattern_census(x, q, 1)
        assert sum(c.counts.values()) == len(prime_array(x)) - 1  # all but q itself

    def test_no_zero_residues(self):
        c = sw.pattern_census(1000, 5, 2)
        for key in c.counts:
            assert 0 not in key

    def test_independent_recount(self):
        # 1009^7 > 2^62: those censuses' codes are Python integers, not int64;
        # at x = 2 and 10 the first block is shorter than a window
        for x, q, r in ((20000, 3, 2), (10**4, 1009, 7), (2, 3, 3), (10, 1009, 7)):
            c = sw.pattern_census(x, q, r)
            assert _brute_census(x, q, r) == Counter(c.counts)

    @pytest.mark.parametrize("q", (3, 7, 1009))
    @pytest.mark.parametrize("r", (1, 2, 3, 7))
    def test_counts_across_small_segments(self, monkeypatch, q, r):
        # about 310 segments of 64 entries, 6 to 13 primes each, so a window
        # of 7 can span three blocks, and the last ones the r - 1 primes after x
        expected = _brute_census(20000, q, r)
        monkeypatch.setattr(foundations, "_SEGMENT", 64)
        c = sw.pattern_census(20000, q, r)
        assert Counter(c.counts) == expected
        assert c.total_windows == sum(expected.values())

    def test_peak_is_one_segment_not_every_prime(self):
        # x = 1e7 is one 2^22-entry segment and a short one; the census peaks
        # at about 3.4 bytes per segment entry, not 8 bytes for each of its
        # 664 579 primes
        tracemalloc.start()
        try:
            sw.pattern_census(10**7, 7, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * foundations._SEGMENT, peak

    def test_telescoping(self):
        # sharp form: left-minus-right occurrences of a telescope down to the
        # sequence endpoints plus the two windows dropped around the prime q
        x, q = 10**5, 5
        c = sw.pattern_census(x, q, 2)
        ps = prime_array(x + 1000)
        n_main = int(np.searchsorted(ps, x, side="right"))
        r_first = int(ps[0]) % q
        r_after = int(ps[n_main]) % q
        iq = int(np.searchsorted(ps, q))
        r_pred = int(ps[iq - 1]) % q
        r_succ = int(ps[iq + 1]) % q
        for a in range(1, q):
            out = sum(c.count((a, b)) for b in range(1, q))
            inn = sum(c.count((b, a)) for b in range(1, q))
            expected = (
                (r_first == a) - (r_after == a) - (r_pred == a) + (r_succ == a)
            )
            assert out - inn == expected, a

    def test_bias_direction_at_1e6(self):
        c = sw.pattern_census(10**6, 3, 2)
        assert c.count((1, 2)) > c.count((1, 1))
        assert c.count((2, 1)) > c.count((2, 2))

    def test_cap(self):
        with pytest.raises(ResourceLimitError, match="cap 1000000000 on sieve work"):
            sw.pattern_census(10**9 + 1, 3, 2)

    @pytest.fixture
    def no_sieve(self, monkeypatch):
        class SieveStarted(Exception):
            pass

        def prime_blocks(x):
            raise SieveStarted(x)

        monkeypatch.setattr(primes, "prime_blocks", prime_blocks)
        return SieveStarted

    def test_byte_cap_refuses_before_sieving(self, no_sieve):
        # pi(1e9) < 60 562 849 patterns at 200 + 64 * 2 bytes each
        with pytest.raises(ResourceLimitError, match="about 19864614472 bytes"):
            sw.pattern_census(10**9, 1_000_003, 2)
        # q^r bounds the patterns below pi(x): 211^3 of length 3
        with pytest.raises(ResourceLimitError, match="up to 9393931 distinct"):
            sw.pattern_census(10**9, 211, 3)

    def test_length_cap_refuses_before_sieving(self, no_sieve):
        with pytest.raises(ResourceLimitError, match="cap 32 on pattern length"):
            sw.pattern_census(100, 3, 10**5)

    @pytest.mark.parametrize(
        "x, q, r",
        [(10**9, 3, 2), (10**9, 7, 3), (10**8, 7, 3), (10**7, 1_000_003, 2),
         (10**4, 1009, 7), (10**5, 101, 2), (10**6, 3, primes.MAX_CENSUS_R)],
    )
    def test_caps_admit_the_censuses_in_use(self, no_sieve, x, q, r):
        # the README, test, CI and benchmark censuses reach the sieve
        with pytest.raises(no_sieve):
            sw.pattern_census(x, q, r)

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            sw.pattern_census(100, 6, 2)


def _li_pv_quadrature(x):
    # PV int_0^x dt/log t = int_0^x (1/log t - 1/(t-1)) dt + log|x-1|,
    # the corrected integrand being regular at t = 1
    def f(t):
        if t == 0.0:
            return 0.0
        if abs(t - 1.0) < 1e-9:
            return 0.5
        return 1.0 / math.log(t) - 1.0 / (t - 1.0)

    val = quad(f, 0, x, epsabs=1e-12, limit=200, points=[1.0] if x > 1 else None)[0]
    return val + math.log(abs(x - 1.0))


class TestLogIntegral:
    def test_at_zero(self):
        assert sw.log_integral(0.0) == 0.0

    def test_reference_values(self):
        assert sw.log_integral(2.0) == pytest.approx(1.0451637801, abs=1e-8)
        assert sw.log_integral(10.0) == pytest.approx(6.1655995048, abs=1e-8)

    def test_against_pv_quadrature(self):
        for x in (2.0, 10.0, 100.0):
            assert sw.log_integral(x) == pytest.approx(
                _li_pv_quadrature(x), abs=1e-8
            )

    def test_against_exponential_integral(self):
        for x in (0.3, 0.9, 1.5, 2.0, 50.0, 1e4, 1e6):
            assert sw.log_integral(x) == pytest.approx(
                float(expi(math.log(x))), rel=1e-10, abs=1e-10
            )

    def test_below_two_to_1e_12_absolute(self):
        for x in (1e-3, 0.00999, 0.05):
            assert sw.log_integral(x) == pytest.approx(
                float(expi(math.log(x))), rel=0, abs=1e-12
            )

    def test_domain_error_at_one(self):
        with pytest.raises(ValueError):
            sw.log_integral(1.0)
        with pytest.raises(ValueError):
            sw.log_integral(-2.0)


class TestConjectureReport:
    def test_prediction_arithmetic(self, table_101):
        census = sw.pattern_census(10**5, 101, 2)
        rep = sw.conjecture_report(
            10**5, 101, Pattern(101, (1, 2)), table_101, census
        )
        lx = math.log(10**5)
        llx = math.log(lx)
        rebuilt = rep["main_term"] * (
            1 + rep["c1"] * llx / lx + rep["c2"] / lx
        )
        assert rep["prediction_order2"] == pytest.approx(rebuilt, rel=1e-12)

    def test_repulsion_direction_q3(self):
        t3 = sw.build_table(3)
        census = sw.pattern_census(10**6, 3, 2)
        rep = sw.conjecture_report(10**6, 3, Pattern(3, (1, 1)), t3, census)
        assert rep["observed"] < rep["main_term"]
        assert rep["c1"] == -0.5

    def test_corrections_reduce_residuals_at_1e7(self):
        t3 = sw.build_table(3)
        census = sw.pattern_census(10**7, 3, 2)
        r0 = []
        r2 = []
        for a in (1, 2):
            for b in (1, 2):
                rep = sw.conjecture_report(10**7, 3, Pattern(3, (a, b)), t3, census)
                r0.append(abs(rep["residual_order0"]))
                r2.append(abs(rep["residual_order2"]))
        assert np.mean(r2) < np.mean(r0)

    def test_r1_report(self):
        census = sw.pattern_census(10**5, 7, 1)
        rep = sw.conjecture_report(10**5, 7, Pattern(7, (3,)), None, census)
        assert rep["c1"] == 0.0 and rep["c2"] == 0.0
        assert rep["observed"] > 0
