import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from sawspec.foundations import (
    build_sieves,
    coeff_a_floats,
    coeff_b_denominators,
    coeff_b_floats,
    constant_C,
    factorize,
    jordan_table,
    mobius_table,
    phi_segments,
    prime_array,
    psi_array,
)

from oracles import coeff_a, coeff_b, psi, whole_table

TWIN_DOUBLED = 1.3203236316937392  # 2 * prod_{p>=3} (1 - (p-1)^-2)


class TestPsi:
    def test_integer_values(self):
        assert psi_array(0.0) == 0.0
        assert psi_array(7.0) == 0.0
        assert psi_array(-3.0) == 0.0

    def test_quarter_points(self):
        assert psi_array(0.25) == -0.25
        assert psi_array(-0.25) == 0.25
        assert psi_array(0.75) == 0.25

    def test_half_integers_vanish(self):
        assert psi_array(0.5) == 0.0
        assert psi_array(2.5) == 0.0
        assert psi_array(-1.5) == 0.0

    @given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
    def test_oddness_exact(self, x):
        assert psi_array(x) + psi_array(-x) == 0.0

    @given(st.floats(min_value=-1e3, max_value=1e3))
    def test_periodicity(self, x):
        # stay away from the jump at integers, where x + 1.0 can round
        # across the discontinuity
        assume(abs(x - round(x)) > 1e-9)
        assert psi_array(x + 1.0) == pytest.approx(psi_array(x), abs=5e-13)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_range(self, x):
        assert -0.5 <= psi_array(x) <= 0.5

    def test_array_agrees_with_scalar(self):
        xs = np.array([-2.5, -0.3, 0.0, 0.125, 1.0, 3.7])
        assert np.array_equal(psi_array(xs), [psi(float(x)) for x in xs])


def _phi_trial(n):
    out = n
    d = 2
    while d * d <= n:
        if n % d == 0:
            out -= out // d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out -= out // n
    return out


def _jordan2_trial(n):
    # J_2(n) = n^2 prod_{p | n} (1 - 1/p^2)
    out = n * n
    d = 2
    while d * d <= n:
        if n % d == 0:
            out -= out // (d * d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out -= out // (n * n)
    return out


def _mu_trial(n):
    mu = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    if n > 1:
        mu = -mu
    return mu


def _totient_sum_recursive(N, cache):
    # Phi(N) = N(N+1)/2 - sum_{d>=2} Phi(N//d): independent of any sieve
    if N in cache:
        return cache[N]
    total = N * (N + 1) // 2
    d = 2
    while d <= N:
        top = N // d
        d_hi = N // top
        total -= (d_hi - d + 1) * _totient_sum_recursive(top, cache)
        d = d_hi + 1
    cache[N] = total
    return total


class TestSieves:
    def test_examples(self, sieves_1m, mobius_1m):
        assert sieves_1m[10] == 4
        assert mobius_1m[10] == 1
        assert sieves_1m[9] == 6
        assert mobius_1m[9] == 0

    def test_prime_rows(self, sieves_1m, mobius_1m):
        for p in (2, 3, 101, 999983):
            assert sieves_1m[p] == p - 1
            assert mobius_1m[p] == -1

    def test_against_trial_division(self, sieves_1m, mobius_1m):
        rng = np.random.default_rng(7)
        sample = list(range(2, 2000)) + list(rng.integers(2000, 10**6, 300))
        for n in sample:
            n = int(n)
            assert sieves_1m[n] == _phi_trial(n)
            assert mobius_1m[n] == _mu_trial(n)

    def test_build_sieves_is_phi_alone(self, sieves_1m):
        # the totient workload passes the phi table on [0, limit]; no mu is kept
        assert len(sieves_1m) == 10**6 + 1
        assert np.array_equal(sieves_1m, jordan_table(10**6, 1))
        assert not hasattr(sieves_1m, "mobius")

    def test_totient_prefix_against_recursive_identity(self, sieves_1m):
        total = int(np.sum(sieves_1m[: 10**6 + 1]))
        assert total == _totient_sum_recursive(10**6, {})

    def test_small_limits_against_trial_division(self):
        # every limit up to 200 passes p^2 - 1, p^2 and p^2 + 1 for
        # p <= 13, where the largest sieving prime sqrt(limit) changes; at
        # limits 2 and 3 the primes 2 and 3 lie above sqrt(limit)
        for limit in range(0, 201):
            phi, mu, j2 = jordan_table(limit, 1), mobius_table(limit), jordan_table(limit, 2)
            assert len(phi) == len(mu) == len(j2) == limit + 1
            assert phi[0] == mu[0] == j2[0] == 0, limit
            for n in range(1, limit + 1):
                assert phi[n] == _phi_trial(n), (limit, n)
                assert mu[n] == _mu_trial(n), (limit, n)
                assert j2[n] == _jordan2_trial(n), (limit, n)
            s = build_sieves(limit)
            assert len(s) == limit + 1 and np.array_equal(s, phi)

    def test_callers_sieve_only_the_table_they_read(self, monkeypatch):
        # the totient stream sieves phi alone (int32 segments for the
        # moments, float64 into the samples), build_sieves phi alone (int64),
        # the mu readers mu alone (int8), the C model b alone (float64)
        import sawspec as sw
        import sawspec.foundations as fnd

        sieve, dtypes = fnd._sieve, []

        def spy(limit, dtype, *steps):
            dtypes.append(np.dtype(dtype))
            return sieve(limit, dtype, *steps)

        monkeypatch.setattr(fnd, "_sieve", spy)
        for call, want in [
            (lambda: sw.rtilde_moments_exact(1000, 2, sw.build_phi_accumulator(1000)), np.int32),
            (lambda: sw.rtilde_samples(sw.build_phi_accumulator(1000)), np.float64),
            (lambda: sw.build_sieves(1000), np.int64),
            (lambda: sw.theoretical_moment("R", 4, 30), np.int8),
            (lambda: sw.sawtooth_model("R", 0.5, 30), np.int8),
            (lambda: sw.sawtooth_model("C", 0.5, 30), np.float64),
        ]:
            dtypes.clear()
            call()
            assert dtypes == [np.dtype(want)]

    @pytest.mark.parametrize("limit", [10**6, 10**7])
    def test_peak_below_the_cap_figure(self, limit):
        # the cap message states (itemsize + 1) bytes per entry: the table
        # and one segment's smooth parts and temporaries, under a byte per
        # entry from 1e6 on
        import tracemalloc

        for build, dtype in [
            (lambda: jordan_table(limit, 1), np.int64),
            (lambda: build_sieves(limit), np.int64),
            (lambda: mobius_table(limit), np.int8),
            (lambda: coeff_a_floats(limit), np.float64),
            (lambda: coeff_b_floats(limit), np.float64),
        ]:
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size = np.dtype(dtype).itemsize
            assert size * (limit + 1) < peak < (size + 1) * (limit + 1), dtype

    def test_resource_cap(self):
        from sawspec.errors import ResourceLimitError

        # below 9 bytes per entry: the phi table and one segment's work
        with pytest.raises(ResourceLimitError, match=r"1800000018 bytes"):
            build_sieves(200_000_001)
        # below 2 bytes per entry for mu alone
        with pytest.raises(ResourceLimitError, match=r"400000004 bytes"):
            mobius_table(200_000_001)


_TABLES = {
    "jordan_1": lambda limit: jordan_table(limit, 1),
    "jordan_2": lambda limit: jordan_table(limit, 2),
    "mobius": mobius_table,
    "coeff_a": coeff_a_floats,
    "coeff_b": coeff_b_floats,
    "coeff_d": coeff_b_denominators,
}


class TestSegmentedSieve:
    """Every table of the segmented sieve is the whole-table sieve's, bit
    for bit and of the same dtype, wherever the segments end."""

    @staticmethod
    def _check(limits):
        for limit in limits:
            for name, build in _TABLES.items():
                got, want = build(limit), whole_table(name, limit)
                assert got.dtype == want.dtype, (name, limit)
                assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), (name, limit)

    def test_small_limits(self):
        self._check(range(1, 301))

    @pytest.mark.parametrize("limit", [10**5, 10**6])
    def test_large_limits(self, limit):
        self._check([limit])

    def test_many_segment_ends(self, monkeypatch):
        # segments of 64 entries (128 from limit 2^18 on) put segment ends
        # between the multiples of every prime power
        import sawspec.foundations as fnd

        monkeypatch.setattr(fnd, "_SIEVE_UNIT", 64)
        monkeypatch.setattr(fnd, "_TABLE_UNITS", 1)
        self._check([*range(1, 301), 10**5])

    @pytest.mark.parametrize("limit, size", [(10**5, 2**15), (10**6, 2**16), (10**7, 229_376)])
    def test_segment_rule(self, limit, size):
        # 2^15 ceil(sqrt(limit) / 2^9) entries, the last one cut at limit + 1
        segments = phi_segments(limit)
        lo0, first = next(segments)
        lo1, _ = next(segments)
        assert (lo0, first.size, lo1, first.dtype) == (0, size, size, np.int32)
        # into a float64 array: the same segments, as its slices
        out = np.empty(limit + 1)
        lo0, first = next(phi_segments(limit, out))
        assert first.size == size and np.shares_memory(first, out)

    def test_table_segments(self, monkeypatch):
        # a table is filled in segments of at least 2^17 entries: one below
        # that, so the sieve loops over the prime powers once
        import sawspec.foundations as fnd

        sieve, sizes = fnd._sieve, []

        def spy(*args):
            for lo, f in sieve(*args):
                sizes.append(f.size)
                yield lo, f

        monkeypatch.setattr(fnd, "_sieve", spy)
        coeff_a_floats(10**5)
        assert sizes == [10**5 + 1]
        sizes.clear()
        mobius_table(10**6)
        assert sizes == [2**17] * 7 + [10**6 + 1 - 7 * 2**17]

    def test_phi_stream_refuses_int32_overflow(self):
        # refused when called, before any prime is listed
        from sawspec.errors import ResourceLimitError

        with pytest.raises(ResourceLimitError, match="2147483648 is not below 2"):
            phi_segments(2**31)


_IS_PRIME_1M = np.zeros(10**6 + 1, dtype=bool)
_IS_PRIME_1M[prime_array(10**6)] = True


def _assert_unique_factorization(n):
    # the product of p^e is n, the p strictly increase and are prime, e >= 1:
    # by unique factorization that pins factorize(n) down
    pairs = factorize(n)
    assert math.prod(p**e for p, e in pairs) == n, n
    ps = [p for p, _ in pairs]
    assert ps == sorted(set(ps)), n
    assert all(_IS_PRIME_1M[p] and e >= 1 for p, e in pairs), n


class TestFactorize:
    def test_examples(self):
        assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
        assert factorize(1) == []
        assert factorize(2) == [(2, 1)]
        assert factorize(999983) == [(999983, 1)]

    def test_unique_factorization_up_to_1e5(self):
        for n in range(1, 10**5 + 1):
            _assert_unique_factorization(n)

    def test_unique_factorization_sampled_to_1e6(self):
        rng = np.random.default_rng(11)
        for n in rng.integers(10**5, 10**6 + 1, 2000).tolist():
            _assert_unique_factorization(n)

    @pytest.mark.parametrize("q", [999953, 999959, 999961, 999979, 999983])
    def test_prime_minus_one(self, q):
        # q - 1 is what primitive_root factors
        _assert_unique_factorization(q - 1)


class TestCoefficients:
    def test_a_examples(self):
        assert coeff_a(2) == Fraction(-1, 2)
        assert coeff_a(9) == Fraction(-1, 3)
        assert coeff_a(8) == 0
        assert coeff_a(1) == 1
        assert coeff_a(3) == Fraction(2, 3)

    def test_b_examples(self):
        assert coeff_b(3) == 1
        assert coeff_b(9) == 0
        assert coeff_b(15) == Fraction(1, 3)
        assert coeff_b(2) == 0
        assert coeff_b(1) == 1

    def test_b_equals_convolution_of_a(self):
        # b(n) = sum_{uv=n} a(u)/v exactly, for every n <= 1e4
        for n in range(1, 10_001):
            conv = Fraction(0)
            d = 1
            while d * d <= n:
                if n % d == 0:
                    conv += coeff_a(d) * Fraction(d, n)
                    if d * d != n:
                        conv += coeff_a(n // d) * Fraction(n // d, n)
                d += 1
            assert conv == coeff_b(n), n

    @pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 5, 30, 1000, 10_000])
    def test_b_fractions_match_per_n_oracle(self, limit):
        d = coeff_b_denominators(limit)
        b = [Fraction(1, v) if v else Fraction(0) for v in d.tolist()]
        assert b == [Fraction(0)] + [coeff_b(n) for n in range(1, limit + 1)]
        assert d.dtype == np.int64

    def test_float_tables_within_error_contract(self):
        # every limit up to 200: sqrt(limit) changes, and 2 or 3 is the
        # largest prime; the bounds are the docstrings' gamma_{2w} and gamma_w
        u = Fraction(1, 2**53)

        def gamma(m):
            return m * u / (1 - m * u)

        for limit in range(0, 201):
            a, b = coeff_a_floats(limit), coeff_b_floats(limit)
            assert len(a) == len(b) == limit + 1
            assert a[0] == b[0] == 0, limit
            for n in range(1, limit + 1):
                w = sum(1 for p, _ in factorize(n) if p > 2)
                exact = coeff_a(n)
                assert abs(Fraction(a[n]) - exact) <= gamma(2 * w) * abs(exact), (limit, n)
                exact = coeff_b(n)
                assert abs(Fraction(b[n]) - exact) <= gamma(w) * abs(exact), (limit, n)

    @pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 5, 100, 1000, 10**6])
    def test_float_tables_match_prime_loop_bitwise(self, limit):
        # the reference loops over every prime <= limit, p increasing, with
        # the same operations per entry as the sieve, so the bits agree
        assert coeff_a_floats(limit).tobytes() == _a_floats_prime_loop(limit).tobytes()
        assert coeff_b_floats(limit).tobytes() == _b_floats_prime_loop(limit).tobytes()

    def test_float_tables_match_exact(self):
        a = coeff_a_floats(3000)
        for n in (1, 2, 3, 4, 8, 9, 15, 45, 105, 2048, 2310):
            assert a[n] == pytest.approx(float(coeff_a(n)), abs=1e-15)

    def test_abs_a_tail_exponent(self):
        # partial sums of |a| approach their limit like N^(-1/2+eps);
        # the fitted slope must be at most -0.4
        a = np.abs(coeff_a_floats(10**5))
        partial = np.cumsum(a)
        p = prime_array(10**6).astype(float)
        p = p[p >= 3]
        limit = 1.5 * float(np.prod(1.0 + 3.0 / (p * (p - 2.0))))
        grid = [100, 1000, 10_000, 100_000]
        tails = [limit - partial[N] for N in grid]
        assert all(t > 0 for t in tails)
        slope = np.polyfit(np.log(grid), np.log(tails), 1)[0]
        assert slope <= -0.4


def _a_floats_prime_loop(limit):
    a = np.ones(limit + 1)
    a[0] = 0.0
    a[2::2] *= -0.5
    a[4::4] = 0.0
    for p in prime_array(limit)[1:].tolist():
        a[p::p] *= 2.0 / (p * (p - 2))
        a[p * p :: p * p] *= -0.5
        a[p**3 :: p**3] = 0.0
    return a


def _b_floats_prime_loop(limit):
    b = np.ones(limit + 1)
    b[0] = 0.0
    b[2::2] = 0.0
    for p in prime_array(limit)[1:].tolist():
        b[p::p] /= p - 2
        b[p * p :: p * p] = 0.0
    return b


class TestConstant:
    def test_value_and_bound(self):
        value, bound = constant_C()
        assert bound < 1e-9
        assert value == pytest.approx(TWIN_DOUBLED, abs=2e-9)
        assert abs(value - TWIN_DOUBLED) <= bound

    def test_single_factor_exclusion(self):
        base, _ = constant_C()
        excl3, _ = constant_C(excluded_prime=3)
        assert excl3 / base == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_exclusion_divides_out_one_factor(self):
        base, _ = constant_C()
        for p in (3, 2**31 - 1):
            assert constant_C(excluded_prime=p)[0] == base / (1 - (p - 1) ** -2)

    def test_matches_mpmath_twin_prime_constant(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            reference = 2 * mpmath.twinprime
            value, bound = constant_C()
            assert abs(value - reference) <= 1e-15 * reference
            assert abs(value - reference) <= bound

    def test_small_sieve_product_brackets_literal(self):
        # independent route: the truncated Euler product over odd primes
        # p <= P, whose omitted factors all lie in (0, 1), so the literal
        # sits between the truncated product and its certified tail
        P = 100_000
        value, _ = constant_C()
        upper = 2.0 * _odd_prime_product(P)
        lower = upper * math.exp(-_tail_log_bound(P))
        assert lower < value < upper


def _odd_prime_product(P: int) -> float:
    """prod over odd primes p <= P of (1 - 1/(p-1)^2), odd-only sieve."""
    # entry i represents 2i + 3
    is_prime = np.ones((P - 1) // 2, dtype=bool)
    for i in range(math.isqrt(P) // 2 + 1):
        if is_prime[i]:
            p = 2 * i + 3
            is_prime[(p * p - 3) // 2 :: p] = False
    p_vals = 2.0 * np.nonzero(is_prime)[0] + 3.0
    return float(np.prod(1.0 - 1.0 / (p_vals - 1.0) ** 2))


def _tail_log_bound(P: int) -> float:
    # sum_{p > P} -log(1 - 1/(p-1)^2) <= 1.35 * 2 / ((P-1) log P),
    # via pi(x) < 1.26 x / log x and partial summation.
    return 2.7 / ((P - 1) * math.log(P))
