import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sawspec as sw
from sawspec import characters, dedekind
from sawspec.dedekind import dedekind_values
from sawspec.errors import ResourceLimitError
from oracles import psi, spectrum_by_cotangents


def _dedekind_float(h: int, k: int) -> float:
    """Scalar float reciprocity descent: the reference for dedekind_values,
    which runs the same operations in the same order over all h at once."""
    h %= k
    total = 0.0
    sign = 1.0
    while h:
        total += sign * ((h * h + k * k + 1) / (12.0 * h * k) - 0.25)
        h, k = k % h, h
        sign = -sign
    return total


def _spectrum_fft(q: int) -> np.ndarray:
    """The full-length route: Im of numpy's inverse FFT of s_q at length q
    (pocketfft's Bluestein step at prime q), antisymmetrized over t <-> q-t."""
    im = np.fft.ifft(dedekind_values(q)).imag
    values = (im - np.roll(im[::-1], 1)) / 2.0
    values[0] = 0.0
    return values


def _spectrum_naive(q: int) -> np.ndarray:
    """Im s_hat_q(t) by the definitional DFT, one complex outer product."""
    a = np.arange(q)
    phases = np.exp((2j * math.pi / q) * (np.outer(a, a) % q))
    return (phases @ dedekind_values(q)).imag / q


class TestDedekindSum:
    def test_known_values(self):
        # s_q(1) = (q-1)(q-2)/(12q); s_5(2) = 0 by the direct hand sum
        assert sw.dedekind_sum_pair(1, 5) == Fraction(1, 5)
        assert sw.dedekind_sum_pair(1, 5, "direct") == Fraction(1, 5)
        assert sw.dedekind_sum_pair(2, 5) == 0
        assert sw.dedekind_sum_pair(2, 5, "direct") == 0
        assert sw.dedekind_sum_pair(1, 7) == Fraction(5, 14)

    def test_oddness(self):
        assert sw.dedekind_sum_pair(6, 7) == -sw.dedekind_sum_pair(1, 7)
        for q in (11, 13, 101):
            for a in (1, 2, 5):
                assert sw.dedekind_sum_pair(q - a, q) == -sw.dedekind_sum_pair(a, q)

    def test_rejects_zero_class(self):
        with pytest.raises(ValueError):
            sw.dedekind_sum_pair(0, 7)
        with pytest.raises(ValueError):
            sw.dedekind_sum_pair(14, 7)

    def test_direct_budget(self):
        # 1e9 + 6 terms, about four minutes of the loop, refused before it;
        # the reciprocity descent at the same modulus is exact and quick
        q = 1_000_000_007
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="1000000006 terms"):
            sw.dedekind_sum_pair(7, q, "direct")
        assert time.perf_counter() - start < 1.0
        assert sw.dedekind_sum_pair(7, q) == Fraction(23809524357142861, 2000000014)

    def test_methods_agree_exactly_small(self):
        for q in (3, 5, 7, 11, 13):
            for a in range(1, q):
                assert sw.dedekind_sum_pair(a, q, "direct") == sw.dedekind_sum_pair(a, q)

    @given(st.integers(min_value=2, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_reciprocity_random(self, k):
        for h in range(1, k):
            if math.gcd(h, k) == 1:
                lhs = sw.dedekind_sum_pair(h, k) + sw.dedekind_sum_pair(k, h)
                rhs = Fraction(-1, 4) + (
                    Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)
                ) / 12
                assert lhs == rhs
                break

    def test_float_descent_matches_exact(self):
        for q in (101, 1009, 10007):
            for a in (1, 7, q // 2, q - 3):
                assert _dedekind_float(a, q) == pytest.approx(
                    float(sw.dedekind_sum_pair(a, q)), abs=1e-10
                )


def _scalar_values(q: int) -> np.ndarray:
    """s_q(a), a = 0..q-1, by the scalar descent and oddness."""
    half = [_dedekind_float(a, q) for a in range(1, (q + 1) // 2)]
    return np.array([0.0] + half + [-v for v in reversed(half)])


def _assert_sampled_bit_identical(q: int, seed: int) -> None:
    """dedekind_values(q) at 200 seeded a from both halves equals the scalar
    descent bit for bit (the upper half as the odd extension of the lower)."""
    vals = dedekind_values(q)
    points = np.random.default_rng(seed).integers(1, q, 200).tolist()
    assert {2 * a < q for a in points} == {True, False}
    for a in points:
        expected = _dedekind_float(a, q) if 2 * a < q else -_dedekind_float(q - a, q)
        assert vals[a] == expected
    assert vals[0] == 0.0


def _descent_steps(h: int, k: int) -> int:
    """Steps (h, k) -> (k mod h, h) of the reciprocity descent until h = 0."""
    n = 0
    while h:
        h, k = k % h, h
        n += 1
    return n


def _lame_steps(q: int) -> int:
    """The largest n with F_(n+2) <= q: Lame's bound on the descent's steps
    from any (a, q), a < q."""
    fib = [0, 1]
    while fib[-1] <= q:
        fib.append(fib[-1] + fib[-2])
    return len(fib) - 4


class TestDedekindValues:
    # 65537: H = 2^15 lanes, exactly one descent block; 100003: a partial
    # last block
    @pytest.mark.parametrize("q", [3, 5, 101, 1009, 10007, 65537, 100003])
    def test_bit_identical_to_scalar_descent(self, q):
        expected = _scalar_values(q)
        assert np.array_equal(dedekind_values(q), expected)

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("q", [101, 1009])
    def test_block_size_keeps_every_bit(self, monkeypatch, q, block):
        monkeypatch.setattr(dedekind, "_DESCENT_BLOCK", block)
        values = dedekind_values(q)
        assert np.array_equal(values.view(np.int64), _scalar_values(q).view(np.int64))

    def test_bit_identical_sampled_near_1e6(self):
        _assert_sampled_bit_identical(1_000_003, seed=11)

    def test_bit_identical_sampled_at_the_cap(self):
        # 1 999 993: the largest prime below MAX_Q, where the float lanes form
        # h^2 + k^2 + 1 up to 8.0e12
        _assert_sampled_bit_identical(1_999_993, seed=12)

    def test_float_lanes_exact_up_to_the_cap(self):
        # the lanes hold h < k <= q as float64: h^2 + k^2 + 1 and k mod h are
        # exact only while 2q^2 + 1 < 2^53, so a cap past that must fail here
        assert 2 * characters.MAX_Q**2 + 1 < 2**53

    @pytest.mark.parametrize("q", [1009, 10007, 1_000_003])
    def test_error_bound_against_exact_sums(self, q):
        # the docstring's bound u ((q + 4n)/3 + (n - 1)(q + 3n)/11), n the
        # descent's step count, held against the exact Fraction of each a
        vals = dedekind_values(q)
        rng = np.random.default_rng(q)
        points = [1, 2, (q - 1) // 2, q - 1] + rng.integers(1, q, 50).tolist()
        assert {2 * a < q for a in points} == {True, False}
        for a in points:
            n = _descent_steps(min(a, q - a), q)
            assert n <= _lame_steps(characters.MAX_Q)
            bound = Fraction(1, 2**53) * (Fraction(q + 4 * n, 3) + Fraction((n - 1) * (q + 3 * n), 11))
            assert abs(Fraction(vals[a]) - sw.dedekind_sum_pair(a, q)) <= bound

    def test_lame_step_count_at_the_cap(self):
        # F_31 = 1 346 269 <= MAX_Q < F_32: the descent takes at most 29 steps
        # below the cap, where the docstring's bound is 6.4e-10
        assert _lame_steps(characters.MAX_Q) == 29
        n, q = 29, characters.MAX_Q
        assert 2**-53 * ((q + 4 * n) / 3 + (n - 1) * (q + 3 * n) / 11) < 6.4e-10
        # q/a = F_31/F_30 descends through quotients 1, ..., 1, 2: 29 steps
        assert _descent_steps(832_040, 1_346_269) == 29

    def test_peak_within_the_stated_bytes_per_residue(self):
        # the values and one block's lanes: 10.4 bytes per residue at q ~ 1e6
        q = 1_000_003
        tracemalloc.start()
        try:
            dedekind_values(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 11 * q
        with pytest.raises(ResourceLimitError, match="11 bytes per residue, 22000033 bytes"):
            dedekind_values(2_000_003)

    @pytest.mark.parametrize("q", [1, 2, 9, 15, 100])
    def test_rejects_non_odd_prime(self, q):
        with pytest.raises(ValueError, match="prime"):
            dedekind_values(q)

    def test_int64_limit_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="bytes"):
                dedekind_values(2_147_483_659)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSpectrum:
    def test_zero_mode(self, spec_101_naive):
        assert spec_101_naive.values[0] == 0.0

    def test_naive_budget(self):
        # refused before the O(q^2) phase terms, with the bytes of one block
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as exc:
                sw.spectrum_all(1_000_003, "naive")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "500002500003 phase terms" in str(exc.value)
        assert "8192024576 bytes" in str(exc.value)
        assert peak < 1 << 20

    def test_naive_vs_chirpz(self, spec_101_naive):
        cz = sw.spectrum_all(101, "chirp-z")
        assert np.max(np.abs(spec_101_naive.values - cz.values)) <= 1e-9

    def test_exact_oddness_of_stored_values(self, spec_1009):
        v = spec_1009.values
        q = spec_1009.q
        for t in (1, 2, 17, 500):
            assert v[q - t] == -v[t]

    def test_inverse_dft_recovers_sums(self, spec_101_naive):
        q = spec_101_naive.q
        shat = 1j * spec_101_naive.values
        back = np.fft.fft(shat)  # sum_t shat(t) e(-at/q)
        direct = dedekind_values(q)
        assert np.max(np.abs(back.real - direct)) <= 1e-9
        assert np.max(np.abs(back.imag)) <= 1e-9

    def test_parseval(self, spec_1009):
        direct = dedekind_values(spec_1009.q)
        lhs = float(np.sum(spec_1009.values**2))
        rhs = float(np.mean(direct**2))
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_resource_cap(self):
        # 29 bytes per residue, past the cap at q = 2000003
        with pytest.raises(ResourceLimitError, match="58000087 bytes"):
            sw.spectrum_all(2_000_003)

    def test_peak_within_the_stated_bytes_per_residue(self):
        # at q ~ 1e6, where the figure is measured: at q ~ 1e5 the descent's
        # block lanes (about 2.3 MB) add 3 bytes per residue
        q = 1_000_003
        sw.spectrum_all(101)  # the memos now hold another modulus
        tracemalloc.start()
        try:
            sw.spectrum_all(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dedekind._SPECTRUM_BYTES_PER_RESIDUE * q

    @pytest.mark.parametrize("q", [3, 5, 7, 101, 1009, 100003, 1_000_003])
    def test_matches_full_length_fft(self, q):
        values = sw.spectrum_all(q).values
        assert np.max(np.abs(values - _spectrum_fft(q))) <= 1e-12
        assert np.array_equal(values[1:], -values[1:][::-1])
        assert values[0] == 0.0

    @pytest.mark.parametrize("q", [3, 5, 101, 199])
    @pytest.mark.parametrize("algorithm", ["naive", "chirp-z"])
    def test_matches_definitional_dft(self, q, algorithm):
        values = sw.spectrum_all(q, algorithm).values
        assert np.max(np.abs(values - _spectrum_naive(q))) <= 1e-12
        assert np.array_equal(values[1:], -values[1:][::-1])

    def test_perturbed_correlation_fails_parseval(self, monkeypatch):
        exact = dedekind._odd_correlation

        def perturbed(*args):
            c = exact(*args)
            c[3] += 1e-6
            return c

        sw.spectrum_all(101)  # the memo now holds another modulus
        monkeypatch.setattr(dedekind, "_odd_correlation", perturbed)
        with pytest.raises(ArithmeticError, match="Parseval"):
            sw.spectrum_all(1009)

    @pytest.mark.parametrize("q", [9, 15, 100])
    def test_rejects_composite_q(self, q):
        with pytest.raises(ValueError, match="prime"):
            sw.spectrum_all(q)


class TestTruncatedRoute:
    def test_purely_imaginary(self):
        v = sw.spectrum_point_truncated(101, 7, 101**2)
        assert v.real == 0.0

    def test_error_contract_scan(self, spec_101_naive):
        q = 101
        x = q * q
        worst = max(
            abs(sw.spectrum_point_truncated(q, t, x).imag - spec_101_naive.values[t])
            for t in range(1, q)
        )
        assert worst <= 10 * q / x

    def test_converges_in_x(self, spec_101_naive):
        q = 101
        errs = [
            abs(
                sw.spectrum_point_truncated(q, 3, x).imag
                - spec_101_naive.values[3]
            )
            for x in (q, q**2, 50 * q**2)
        ]
        assert errs[2] < errs[0]
        assert errs[2] <= 10 * q / (50 * q**2)

    def test_rejects_zero_class(self):
        with pytest.raises(ValueError):
            sw.spectrum_point_truncated(101, 0, 100)

    def test_t_is_reduced_mod_q(self):
        # unreduced, t * inv(n) wraps around int64 without an error
        q, x = 101, 10**4
        value = sw.spectrum_point_truncated(q, 5, x)
        for shift in (2**50, 2**56):
            assert sw.spectrum_point_truncated(q, 5 + q * shift, x) == value

    def test_resource_cap_raises_before_allocating(self):
        # 2^31 - 1 is prime and past the cap; unchecked, its prime context
        # would ask for 16 GiB at once
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="bytes"):
                sw.spectrum_point_truncated(2_147_483_647, 1, 10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("t", [1_999_992, 1_000_003, 7])
    def test_products_near_the_cap_match_python_ints(self, t):
        # t * inv(n) reaches 4e12 at q = 1999993: the int32 group tables give
        # inverses as int64, so the products do not wrap around
        q, x = 1_999_993, 5000
        expected = -math.fsum(
            ((t * pow(n, -1, q)) % q / q - 0.5) / n for n in range(1, x + 1)
        ) / math.pi
        assert sw.spectrum_point_truncated(q, t, x).imag == pytest.approx(
            expected, rel=1e-13, abs=1e-13
        )

    def test_rejects_composite_q(self):
        # the inverses come from a primitive root, which needs a prime
        with pytest.raises(ValueError, match="prime"):
            sw.spectrum_point_truncated(100, 3, 1000)


class TestCharacterRoute:
    def test_q3_closed_form(self, monkeypatch):
        monkeypatch.setattr(characters, "A_SERIES_CUTOFF", 100)
        table = sw.build_table(3)
        v = sw.spectrum_point_characters(3, 1, table)
        assert v.imag == pytest.approx(1.0 / (18.0 * math.sqrt(3.0)), abs=1e-14)
        assert abs(v.real) <= 1e-14

    def test_agrees_with_dft_all_t(self, spec_101_naive, table_101):
        q = 101
        worst = max(
            abs(
                sw.spectrum_point_characters(q, t, table_101).imag
                - spec_101_naive.values[t]
            )
            for t in range(1, q)
        )
        assert worst <= 1e-8

    def test_oddness_from_route(self, table_101):
        for t in (1, 5, 33):
            a = sw.spectrum_point_characters(101, t, table_101)
            b = sw.spectrum_point_characters(101, 101 - t, table_101)
            assert b.imag == pytest.approx(-a.imag, abs=1e-13)


class TestThreeRouteAgreement1009:
    def test_char_route(self, spec_1009, table_1009):
        q = 1009
        worst = max(
            abs(
                sw.spectrum_point_characters(q, t, table_1009).imag
                - spec_1009.values[t]
            )
            for t in range(1, q)
        )
        assert worst <= 1e-8

    def test_truncated_route_sampled(self, spec_1009):
        q = 1009
        x = q * q
        rng = np.random.default_rng(3)
        for t in rng.integers(1, q, 25):
            err = abs(
                sw.spectrum_point_truncated(q, int(t), x).imag
                - spec_1009.values[int(t)]
            )
            assert err <= 10 * q / x


class TestCotangentRoute:
    """The whole spectrum vector against the cotangent form, which reads no
    Dedekind sum, so it checks the descent and the Rader correlation alike."""

    def test_matches_the_cotangent_sum(self):
        # the correlation against the sum it stands for, term by term
        q = 101
        cot = [0.0] + [1.0 / math.tan(math.pi * j / q) for j in range(1, q)]
        direct = [
            -math.fsum(cot[j] * psi(t * pow(j, -1, q) / q) for j in range(1, q)) / (2 * q)
            for t in range(q)
        ]
        assert np.max(np.abs(spectrum_by_cotangents(q) - direct)) <= 1e-14  # 2.7e-15

    # measured gaps max_t |cot - Rader|: 9.2e-16, 9.1e-15 and 3.8e-12; the
    # cot weights reach q/pi, so the gap grows with q
    @pytest.mark.parametrize("q, tol", [(1009, 1e-14), (10007, 1e-13), (1_000_003, 2e-11)])
    def test_whole_vector(self, q, tol):
        # at q = 1 000 003 the naive route is refused
        gap = np.max(np.abs(sw.spectrum_all(q).values - spectrum_by_cotangents(q)))
        assert gap <= tol
