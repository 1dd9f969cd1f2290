import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

import sawspec as sw
from sawspec import characters
from sawspec.errors import ResourceLimitError
from sawspec.bias import Pattern
from sawspec.characters import build_context

from oracles import ck_point_truncated

# pinned from the first verified run (default table settings), after the
# dual-route C(k) checks and the c2/q bridge scan both passed
C2_PIN_Q101_A1_B2 = 18.411653044372997


def _ck_truncated_full(q: int) -> np.ndarray:
    """The full-length route: -C_q sum_e W_e psi(g^(i+e)/q) as one cyclic
    correlation of length q-1 by rfft, antisymmetrized over k <-> q-k."""
    ctx = build_context(q)
    b = sw.foundations.coeff_b_floats(max(1000, q))
    ns = np.nonzero(b)[0]
    ns = ns[ns % q != 0]
    inv2n = [pow(2 * n, -1, q) for n in ns.tolist()]
    c_q, _ = sw.constant_C(excluded_prime=q)
    M = q - 1
    W = np.bincount(ctx.index[inv2n], weights=b[ns], minlength=M)
    saw = ctx.powers / q - 0.5
    corr = np.fft.irfft(np.fft.rfft(saw) * np.conj(np.fft.rfft(W)), M)
    values = np.empty(q)
    values[ctx.powers] = -c_q * corr
    values = (values - np.roll(values[::-1], 1)) / 2.0
    values[0] = np.nan
    return values


def _c2_pair_chi_bar(q: int, a: int, b: int, table) -> float:
    """c2 off the diagonal from the per-character sum with three chi_bar rows."""
    M = q - 1
    coef = table.chi_bar(b - a) + (table.chi_bar(b) - table.chi_bar(a)) / M
    total = np.sum(coef * table.l_zero * table.l_one * table.a_chi)
    return float((0.5 * math.log(2.0 * math.pi / q) + (q / M) * total).real)


class TestC1:
    def test_hand_values(self):
        assert sw.c1_pattern(Pattern(3, (1, 1))) == -0.5
        assert sw.c1_pattern(Pattern(3, (1, 2))) == 0.5

    def test_sum_over_all_length2_patterns_vanishes(self):
        q = 5
        total = sum(
            sw.c1_pattern(Pattern(q, (a, b)))
            for a in range(1, q)
            for b in range(1, q)
        )
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_repeat_penalty(self):
        q = 11
        no_repeat = sw.c1_pattern(Pattern(q, (1, 2, 3)))
        one_repeat = sw.c1_pattern(Pattern(q, (1, 1, 3)))
        assert no_repeat - one_repeat == pytest.approx((q - 1) / 2, abs=1e-12)

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            Pattern(3, (1, 3))
        with pytest.raises(ValueError):
            Pattern(5, ())


class TestCkPoint:
    def test_oddness_exact(self, table_101):
        for k in (1, 7, 50):
            a = sw.ck_point(101, k, "characters", table=table_101)
            b = sw.ck_point(101, 101 - k, "characters", table=table_101)
            assert a + b == 0.0

    def test_rejects_zero(self, table_101):
        with pytest.raises(ValueError):
            sw.ck_point(101, 0, "characters", table=table_101)
        with pytest.raises(ValueError):
            sw.ck_point(101, 202, "characters", table=table_101)

    def test_matches_vector(self, table_101):
        vec = sw.ck_all(101, "characters", table=table_101)
        for k in (1, 2, 64, 100):
            assert sw.ck_point(101, k, "characters", table=table_101) == pytest.approx(
                vec.values[k], abs=1e-12
            )

    def test_truncated_method_is_refused(self):
        # the truncated point value is the oracle's; the library's is ck_all's
        with pytest.raises(ValueError, match="unknown method"):
            sw.ck_point(101, 5, "truncated")

    def test_truncated_route_point(self):
        a = ck_point_truncated(101, 5)
        b = ck_point_truncated(101, 96)
        assert a + b == 0.0

    def test_truncated_route_rejects_composite_q(self):
        with pytest.raises(ValueError, match="prime"):
            ck_point_truncated(25, 3)

    def test_truncated_route_cap_raises_before_allocating(self):
        # 2^31 - 1 is prime and past the cap; unchecked, its prime context
        # would ask for 16 GiB at once
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="bytes"):
                ck_point_truncated(2_147_483_647, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_truncated_point_near_the_cap_matches_python_ints(self):
        # k inv(2n) reaches 4e12 at q = 1999993: the int32 group tables give
        # inverses as int64, so the products do not wrap around
        q, k = 1_999_993, 1_999_990
        b = sw.foundations.coeff_b_floats(q)
        ns = np.nonzero(b)[0]
        ns = ns[ns % q != 0]
        weights, inverses = b[ns].tolist(), [pow(2 * n, -1, q) for n in ns.tolist()]
        c_q, _ = sw.constant_C(excluded_prime=q)

        def raw(kk):
            return -c_q * math.fsum(
                w * ((kk * inv) % q / q - 0.5) for w, inv in zip(weights, inverses)
            )

        expected = 0.5 * (raw(k) - raw(q - k))
        assert ck_point_truncated(q, k) == pytest.approx(expected, abs=1e-10)

    def test_truncated_point_matches_truncated_vector(self):
        # both routes evaluate the same series terms: the point route sums
        # them directly, the vector route as one cyclic correlation by FFT
        cases = {1009: (1, 2, 3, 500, 504, 505, 1008), 10007: (1, 2, 3, 5003, 5004, 10006)}
        for q, ks in cases.items():
            vec = sw.ck_all(q, "truncated")
            for k in ks:
                point = ck_point_truncated(q, k)
                assert point == pytest.approx(vec.values[k], abs=1e-12)


class TestCkVector:
    @pytest.mark.parametrize("q", [3, 5, 7, 101, 1009, 100003])
    def test_truncated_matches_full_length_correlation(self, q):
        values = sw.ck_all(q, "truncated").values
        assert np.nanmax(np.abs(values - _ck_truncated_full(q))) <= 1e-12
        assert np.array_equal(values[1:], -values[1:][::-1])
        assert np.isnan(values[0])

    @pytest.mark.parametrize("q", [3, 5, 101, 199])
    def test_truncated_matches_direct_sums(self, q):
        values = sw.ck_all(q, "truncated").values
        direct = [ck_point_truncated(q, k) for k in range(1, q)]
        assert np.max(np.abs(values[1:] - direct)) <= 1e-12

    def test_truncated_near_the_cap_matches_direct_sums(self):
        # the largest prime below the cap: the vector route against the
        # oracle's direct sums, which read k inv(2n) up to 4e12 in int64
        q = 1_999_993
        values = sw.ck_all(q, "truncated").values
        for k in (1, 2, q - 3):
            assert values[k] == pytest.approx(ck_point_truncated(q, k), abs=1e-10)

    def test_resource_cap(self):
        # 29 bytes per residue, past the cap at q = 2000003
        with pytest.raises(ResourceLimitError, match="58000087 bytes"):
            sw.ck_all(2_000_003, "truncated")

    def test_truncated_sieve_cap_states_its_peak(self):
        # 15 bytes per entry of [0, N], the measured tracemalloc peak (14.92)
        # rounded up, refused before the b(n) table
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="would peak below 3000000030 bytes"):
                sw.ck_all(11, "truncated", cutoff=200_000_001)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
            sw.ck_all(1009, "truncated", cutoff=1000)  # the context and C_q, memoised
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            N = 10**6
            sw.ck_all(1009, "truncated", cutoff=N)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 15 * (N + 1), peak

    @pytest.mark.parametrize("N", [0, -5])
    def test_truncated_route_rejects_cutoff_below_one(self, N):
        # before, N = 0 gave signed zeros and N = -5 numpy's negative dimensions
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"N = {N} must be >= 1"):
                sw.ck_all(101, "truncated", cutoff=N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("q", [9, 25, 100])
    def test_truncated_route_rejects_composite_q(self, q):
        with pytest.raises(ValueError, match="prime"):
            sw.ck_all(q, "truncated", cutoff=3)

    def test_sum_is_zero(self, ck_1009):
        assert abs(float(np.sum(ck_1009.samples))) <= 1e-8

    def test_exact_oddness(self, ck_1009):
        v = ck_1009.values
        for k in (1, 17, 444):
            assert v[1009 - k] == -v[k]

    def test_no_entry_at_zero(self, ck_1009, table_1009):
        assert np.isnan(ck_1009.values[0])
        with pytest.raises(ValueError):
            sw.ck_point(1009, 0, "characters", table=table_1009)

    def test_max_growth_report(self, ck_1009, ck_10007):
        # informational scan: max |C(k)| against the (log q)^(2/3)(loglog q)^2 shape
        for vec in (ck_1009, ck_10007):
            peak = float(np.max(np.abs(vec.samples)))
            shape = math.log(vec.q) ** (2 / 3) * math.log(math.log(vec.q)) ** 2
            assert 0.0 < peak / shape < 5.0

    def test_routes_mean_square_gap(self, ck_1009, ck_10007):
        for vec in (ck_1009, ck_10007):
            gaps = []
            for B in (50, 100, 200):
                trunc = sw.ck_all(vec.q, "truncated", cutoff=B)
                gaps.append(float(np.mean((vec.samples - trunc.samples) ** 2)))
            assert gaps[0] > gaps[1] > gaps[2]
            for B, gap in zip((50, 100, 200), gaps):
                assert gap <= 10.0 / math.sqrt(B)


class TestC2:
    def test_diagonal_closed_form(self, table_101, monkeypatch):
        monkeypatch.setattr(characters, "A_SERIES_CUTOFF", 1000)
        t5 = sw.build_table(5)
        expected = (5 - 2) / 2 * math.log(5 / (2 * math.pi))
        assert sw.c2_pair(5, 2, 2, t5) == pytest.approx(expected, abs=1e-13)
        assert sw.c2_pair(5, 2, 7, t5) == pytest.approx(expected, abs=1e-13)
        assert expected == pytest.approx(-0.34266, abs=1e-4)

    def test_regression_pin(self, table_101):
        assert sw.c2_pair(101, 1, 2, table_101) == pytest.approx(
            C2_PIN_Q101_A1_B2, rel=1e-9
        )

    def test_bridge_to_ck(self, table_101):
        q = 101
        vec = sw.ck_all(q, "characters", table=table_101)
        allowed = 10 * math.log(q) ** 2 / math.sqrt(q)
        rng = np.random.default_rng(5)
        for _ in range(40):
            a, b = rng.integers(1, q, 2)
            if a == b:
                continue
            c2 = sw.c2_pair(q, int(a), int(b), table_101)
            assert abs(c2 / q - vec.values[int(b - a) % q]) <= allowed

    @pytest.mark.parametrize("q", [3, 5, 101, 1009])
    def test_table_sums_match_chi_bar_sums(self, q):
        table = sw.build_table(q)
        if q <= 5:
            pairs = [(a, b) for a in range(1, q) for b in range(1, q) if a != b]
        else:
            rng = np.random.default_rng(q)
            pairs = [(a, b) for a, b in rng.integers(1, q, (60, 2)).tolist() if a != b]
        for a, b in pairs:
            expected = _c2_pair_chi_bar(q, a, b, table)
            value = sw.c2_pair(q, a, b, table)
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("q", [5, 7, 101])
    def test_index_read_equals_the_residue_read(self, q):
        # c2_pair reads its three S values from the table's half through the
        # discrete log; the residue vector of S gives the same float for every
        # off-diagonal pair, and for residues given outside 0..q-1
        table = sw.build_table(q)
        ctx, H, M = table.context, (q - 1) // 2, q - 1
        S = np.zeros(q)
        S[ctx.powers[:H]] = table.half
        S[ctx.powers[H:]] = -table.half
        for a, b in product(range(1, q), repeat=2):
            if a == b:
                continue
            total = float(S[(b - a) % q]) + (float(S[b]) - float(S[a])) / M
            expected = 0.5 * math.log(2.0 * math.pi / q) + (q / M) * total
            assert sw.c2_pair(q, a, b, table) == expected
            assert sw.c2_pair(q, a - q, b + 2 * q, table) == expected

    def test_rejects_bad_residues(self, table_101):
        with pytest.raises(ValueError):
            sw.c2_pair(101, 0, 5, table_101)

    def test_pattern_length2_equals_pair(self, table_101):
        q = 101
        assert sw.c2_pattern(Pattern(q, (3, 7)), table_101) == sw.c2_pair(
            q, 3, 7, table_101
        )

    def test_pattern_length3_hand_composition(self, monkeypatch):
        monkeypatch.setattr(characters, "A_SERIES_CUTOFF", 1000)
        t3 = sw.build_table(3)
        c12 = sw.c2_pair(3, 1, 2, t3)
        c21 = sw.c2_pair(3, 2, 1, t3)
        c22 = sw.c2_pair(3, 2, 2, t3)
        # (1,2,1): the j=1 correction sees the a_1 = a_3 match
        val = sw.c2_pattern(Pattern(3, (1, 2, 1)), t3)
        assert val == pytest.approx(c12 + c21 + (0.5 - 1.0), abs=1e-12)
        # (1,2,2): no gap-1 match
        val = sw.c2_pattern(Pattern(3, (1, 2, 2)), t3)
        assert val == pytest.approx(c12 + c22 + 0.5, abs=1e-12)

    def test_pattern_needs_length2(self, table_101):
        with pytest.raises(ValueError):
            sw.c2_pattern(Pattern(101, (1,)), table_101)


class TestFiniteness:
    def test_all_outputs_real_finite(self, ck_1009, table_101):
        assert np.all(np.isfinite(ck_1009.samples))
        for a, b in product((1, 2, 3), repeat=2):
            assert math.isfinite(sw.c2_pair(101, a, b, table_101))
