import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

import sawspec as sw
from sawspec.distribution import histogram, summary
from sawspec.errors import ResourceLimitError

from oracles import (
    psi,
    rtilde_moments_chunked,
    rtilde_moments_whole,
    rtilde_samples_whole,
    whole_table,
)

P = 3.0 / math.pi**2


class TestRValues:
    def test_at_one(self, acc_1m):
        R, Rt = sw.r_values(1, acc_1m)
        assert R == pytest.approx(1 - P, abs=1e-12)
        assert R == pytest.approx(0.696036, abs=1e-6)

    def test_at_ten(self, acc_1m):
        # S_10 = 32 by hand; the integer point carries the phi/2x correction
        R, Rt = sw.r_values(10, acc_1m)
        assert R == pytest.approx(32 - 300 / math.pi**2, abs=1e-10)
        assert Rt == pytest.approx(R / 10 - 4 / 20, abs=1e-12)
        assert Rt == pytest.approx(-0.039636, abs=1e-6)

    def test_non_integer_no_correction(self, acc_1m):
        R, Rt = sw.r_values(10.5, acc_1m)
        assert Rt == pytest.approx(R / 10.5, abs=1e-15)

    def test_domain(self, acc_1m):
        with pytest.raises(ValueError):
            sw.r_values(0, acc_1m)
        with pytest.raises(ValueError):
            sw.r_values(10**6 + 1, acc_1m)

    def test_prefix_invariants(self, acc_1m, prefix_1m):
        # the table's prefix sums, read segment by segment, are its cumsum
        joined = np.concatenate([S.copy() for _, S in acc_1m.prefix_segments(10**6)])
        assert np.array_equal(joined, prefix_1m)
        assert joined[0] == 0
        diffs = np.diff(joined)
        assert np.all(diffs > 0)
        assert diffs[9] == 4  # phi(10)

    def test_peak_is_phi_and_prefix(self, prefix_1m):
        # the accumulator holds no table: its prefix sums are streamed, equal
        # to the cumsum of the phi table, in one int64 buffer beside one
        # int32 segment of phi and the sieve's work, 1.2 MB at y = 1e6 where
        # the summed table peaked at 12.6 MB
        import tracemalloc

        y = 10**6
        want = prefix_1m
        acc = sw.build_phi_accumulator(y)
        assert acc.phi is None
        ends = []
        tracemalloc.start()
        try:
            for lo, S in acc.prefix_segments(y):
                assert np.array_equal(S, want[lo : lo + S.size]), lo
                ends.append(lo + S.size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, peak
        assert ends[-1] == y + 1 and all(e % 2**15 == 0 for e in ends[:-1])

    def test_short_table_refused(self):
        # a table shorter than y + 1 is an error, not a cue to sieve afresh
        phi = sw.build_sieves(100)
        with pytest.raises(ValueError, match="length 101 < y \\+ 1 = 201"):
            sw.build_phi_accumulator(200, phi)
        acc = sw.build_phi_accumulator(100, phi)
        assert acc.phi is phi
        ((lo, S),) = acc.prefix_segments(100)
        assert lo == 0 and np.array_equal(S, np.cumsum(phi))

    def test_sign_changes(self, acc_1m):
        vals = np.array([sw.r_values(x, acc_1m)[0] for x in range(1, 10_001)])
        assert np.any(vals > 0) and np.any(vals < 0)


def _moment_quadrature(prefix, y, ell):
    total = 0.0
    for m in range(y):
        S = float(prefix[m])
        val, err = quad(
            lambda u: (S / u - P * u) ** ell if u > 0 else 0.0,
            m,
            m + 1,
            epsabs=1e-14,
            epsrel=1e-13,
        )
        total += val
    return total / y


def _moment_u_expansion_exact(prefix, y, ell):
    # slow oracle: exact rational u-power antiderivatives per interval, with
    # the float64 model constant lifted to an exact dyadic rational
    Pf = Fraction(P)
    total_rat = Fraction(0)
    total_log = 0.0
    for m in range(y):
        S = int(prefix[m])
        for j in range(ell + 1):
            coef = math.comb(ell, j) * Fraction(S) ** j * (-Pf) ** (ell - j)
            e = ell - 2 * j
            if e == -1:
                if m > 0:
                    total_log += float(coef) * math.log1p(1.0 / m)
            else:
                hi = Fraction(m + 1) ** (e + 1) if m + 1 > 0 else Fraction(0)
                lo = Fraction(m) ** (e + 1) if m > 0 else Fraction(0)
                if m == 0 and e + 1 <= 0:
                    continue  # S_0 = 0 makes the coefficient vanish
                total_rat += coef * (hi - lo) / (e + 1)
    return (float(total_rat) + total_log) / y


def _series_interval_sum(prefix, lo, hi, ell, terms=26):
    # the earlier route, kept as an oracle: the numerator polynomial in
    # v = u - m times kernel integrals J_i = int_0^1 v^i (m+v)^-ell dv, by
    # the binomial series in 1/m (m >= 128) or 64-node Gauss-Legendre
    m_int = np.arange(lo, hi, dtype=np.int64)
    m = m_int.astype(float)
    ld = np.longdouble
    d0 = np.asarray(
        prefix[lo:hi].astype(ld) - ld(P) * m_int.astype(ld) ** 2, dtype=float
    )
    base = [d0, -2.0 * P * m, np.full_like(d0, -P)]
    coeffs = list(base)
    for _ in range(ell - 1):
        out = [np.zeros_like(d0) for _ in range(len(coeffs) + 2)]
        for i, c in enumerate(coeffs):
            for j, b in enumerate(base):
                out[i + j] += c * b
        coeffs = out
    count = 2 * ell + 1
    if lo >= 128:
        minv = 1.0 / m
        mp = minv**ell
        J = np.zeros((count, len(m)))
        coef, sign = 1.0, 1.0
        for r in range(terms + 1):
            scaled = sign * coef * mp
            for i in range(count):
                J[i] += scaled / (i + r + 1.0)
            mp = mp * minv
            sign = -sign
            coef = coef * (ell + r) / (r + 1.0)
    else:
        nodes, weights = np.polynomial.legendre.leggauss(64)
        v = (nodes + 1.0) / 2.0
        kern = (weights / 2.0) / (m[:, None] + v[None, :]) ** ell
        J = np.vander(v, count, increasing=True).T @ kern.T
    total = np.zeros_like(m)
    for c, Ji in zip(coeffs, J):
        total += c * Ji
    return float(np.sum(total))


def _moment_series(prefix, y, ell):
    parts = [(-P) ** ell / (ell + 1.0)]
    lo = 1
    while lo < y:
        hi = min(lo + (1 << 19), y)
        if lo < 128 < hi:
            hi = 128
        parts.append(_series_interval_sum(prefix, lo, hi, ell))
        lo = hi
    return math.fsum(parts) / y


class TestMomentExact:
    def test_against_quadrature_small_y(self, acc_1m, prefix_1m):
        for ell in (1, 2, 3):
            val = sw.rtilde_moment_exact(10, ell, acc_1m)
            assert val == pytest.approx(_moment_quadrature(prefix_1m, 10, ell), abs=1e-10)

    def test_against_exact_u_expansion(self, acc_1m, prefix_1m):
        # even orders only past m = 128: the oracle's float log1p terms
        # cancel badly for odd ell at large m
        cases = ((60, 1), (60, 2), (500, 2), (500, 4), (500, 6), (500, 8), (1000, 4))
        for y, ell in cases:
            fast = sw.rtilde_moment_exact(y, ell, acc_1m)
            slow = _moment_u_expansion_exact(prefix_1m, y, ell)
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-13)

    def test_random_intervals_against_quadrature(self, prefix_1m):
        # per-interval closed form vs adaptive quadrature on 100 random cells
        from sawspec.phi_error import _interval_sum

        rng = np.random.default_rng(9)
        ms = np.unique(rng.integers(1, 10**6, 50))
        for ell in (2, 3):
            for m in ms.tolist():
                S = float(prefix_1m[m])
                ref = quad(
                    lambda u: (S / u - P * u) ** ell,
                    m,
                    m + 1,
                    epsabs=1e-13,
                    epsrel=1e-12,
                )[0]
                work, x = np.empty((4, 1)), np.empty(1, dtype=np.longdouble)
                mine = _interval_sum(prefix_1m[m : m + 1], m, ell, work, x)[-1]
                assert mine == pytest.approx(ref, rel=1e-8, abs=1e-10)

    def test_against_series_route(self, acc_1m, prefix_1m):
        # both sides are means of O(1) float64 integrals; the ell = 1 moment
        # is ~1e-5, so the agreement is stated in absolute terms
        for ell in (1, 2, 5, 8):
            fast = sw.rtilde_moment_exact(200_000, ell, acc_1m)
            assert abs(fast - _moment_series(prefix_1m, 200_000, ell)) <= 1e-15, ell

    def test_one_pass_equals_separate_calls(self, acc_1m):
        together = sw.rtilde_moments_exact(10_000, 8, acc_1m)
        assert len(together) == 8
        for ell in range(1, 9):
            assert together[ell - 1] == sw.rtilde_moment_exact(10_000, ell, acc_1m)

    def test_first_moment_small(self, acc_1m):
        assert abs(sw.rtilde_moment_exact(10**6, 1, acc_1m)) <= 0.01

    def test_second_moment_chowla(self, acc_1m):
        m2 = sw.rtilde_moment_exact(10**6, 2, acc_1m)
        assert m2 == pytest.approx(1 / (2 * math.pi**2), rel=0.05)

    def test_odd_moments_small(self, acc_1m):
        for ell in (1, 3):
            assert abs(sw.rtilde_moment_exact(10**6, ell, acc_1m)) <= 0.02

    def test_domain(self, acc_1m):
        with pytest.raises(ValueError):
            sw.rtilde_moment_exact(10, 9, acc_1m)
        with pytest.raises(ValueError):
            sw.rtilde_moment_exact(10**7, 2, acc_1m)


def _log_node_bound(m: int, n: int, ell: int = 8) -> float:
    # the module note's Bernstein-ellipse bound (64/15) M rho^(-2n) / (rho^2 - 1)
    # at rho = 2m, M = (2 |Rt(m)| + 2 P V (2m + V) / m)^ell with
    # |Rt(m)| <= P m + 1/2 and V = (m + 1)/2 + 1/8, as a logarithm
    rho = 2 * m
    V = Fraction(m + 1, 2) + Fraction(1, 8)
    base = 2 * (Fraction(P) * m + Fraction(1, 2)) + 2 * Fraction(P) * V * (2 * m + V) / m
    return (
        math.log(64 / 15)
        + ell * math.log(base)
        - 2 * n * math.log(rho)
        - math.log(rho * rho - 1)
    )


class TestBlockedPipeline:
    """The totient pipeline in blocks of 2^15: samples bit for bit as the
    whole-array expression, moments against the 2^19-chunk pass, node counts
    from the module note's bound, and no temporary of length y."""

    @pytest.mark.parametrize("y", [2, 3, 2**15 - 1, 2**15, 2**15 + 1, 10**5, 10**6])
    def test_samples_bit_identical_to_whole_array(self, sieves_1m, prefix_1m, y):
        acc = sw.build_phi_accumulator(y, sieves_1m)
        got = sw.rtilde_samples(acc)
        want = rtilde_samples_whole(y, prefix_1m)
        assert got.shape == (y,)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_samples_peak(self, acc_1m):
        import tracemalloc

        y = acc_1m.y
        tracemalloc.start()
        try:
            sw.rtilde_samples(acc_1m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9.5 * y, peak / y

    @pytest.mark.parametrize("y", [10**6, 4 * 10**6])
    def test_moment_pass_transient(self, acc_1m, y):
        import tracemalloc

        acc = acc_1m if y == acc_1m.y else sw.build_phi_accumulator(y)
        tracemalloc.start()
        try:
            sw.rtilde_moments_exact(y, 8, acc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_against_chunked_pass(self, acc_1m, prefix_1m):
        for y in (2, 3, 127, 128, 129, 1000, 2**15 - 1, 2**15):
            assert sw.rtilde_moments_exact(y, 8, acc_1m) == rtilde_moments_chunked(y, 8, prefix_1m), y
        for y in (10**5, 2 * 10**5, 10**6):
            got = sw.rtilde_moments_exact(y, 8, acc_1m)
            want = rtilde_moments_chunked(y, 8, prefix_1m)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15, y

    def test_node_rule_from_the_bound(self):
        from sawspec.phi_error import _CHUNK, _node_count

        tol = math.log(1.1e-24)
        for m in [128, *range(_CHUNK, 10**8 + 1, _CHUNK)]:
            n = _node_count(m)
            assert n <= 8 and _log_node_bound(m, n) <= tol, m
            assert n == 1 or _log_node_bound(m, n - 1) > tol, m
        assert [_node_count(m) for m in (1, 127, 128, 32768, 327680, 360448)] == [
            64, 64, 8, 6, 6, 5
        ]


class TestStream:
    """The accumulator without a table: samples, moments and values from the
    segmented phi sieve, bit for bit as the whole-table pipeline, in the
    memory of a few segments."""

    @pytest.mark.parametrize("y", [2, 3, 2**15 - 1, 2**15, 2**15 + 1, 10**5, 10**6])
    def test_bit_identical_to_whole_table(self, y):
        phi = whole_table("jordan_1", y)
        prefix = np.cumsum(phi)
        table = sw.build_phi_accumulator(y, phi)
        acc = sw.build_phi_accumulator(y)
        assert acc.phi is None
        got, want = sw.rtilde_samples(acc), rtilde_samples_whole(y, prefix)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert sw.rtilde_moments_exact(y, 8, acc) == rtilde_moments_whole(y, 8, prefix)
        assert sw.rtilde_moments_exact(y, 8, table) == rtilde_moments_whole(y, 8, prefix)
        for x in {1, 1.5, 2, y // 2, y - 0.5, y, 2**15, 2**15 + 0.5, 2**15 + 1}:
            if x <= y:
                assert sw.r_values(x, acc) == sw.r_values(x, table), x

    @pytest.mark.parametrize("y", [2, 3, 100, 2**15, 2**15 + 1, 10**5, 10**6 + 3])
    def test_sources_bit_identical(self, y):
        # phi streamed by the sieve or read from a table in 2^15-entry
        # slices: the same moments, samples and values bit for bit
        table = sw.build_phi_accumulator(y, sw.build_sieves(y))
        acc = sw.build_phi_accumulator(y)
        ends = [lo + S.size for lo, S in table.prefix_segments(y)]
        assert ends[-1] == y + 1 and all(e % 2**15 == 0 for e in ends[:-1])
        got, want = sw.rtilde_samples(acc), sw.rtilde_samples(table)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert sw.rtilde_moments_exact(y, 8, acc) == sw.rtilde_moments_exact(y, 8, table)
        for x in (1, 1.5, y / 3, y - 0.5, y):
            assert sw.r_values(x, acc) == sw.r_values(x, table), x

    def test_table_read_in_place(self, sieves_1m):
        # the accumulator keeps the caller's table: it neither copies nor
        # sums it up front (8 MB at y = 1e6), nor writes to it
        import tracemalloc

        y = 10**6
        before = sieves_1m.copy()
        tracemalloc.start()
        try:
            acc = sw.build_phi_accumulator(y, sieves_1m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10, peak
        assert acc.phi is sieves_1m
        sw.rtilde_moments_exact(y, 8, acc)
        sw.rtilde_samples(acc)
        sw.r_values(y, acc)
        assert np.array_equal(sieves_1m, before)

    def test_cut_blocks(self, monkeypatch):
        # segments of 64 entries cut the 2^15 blocks: the moments move only by
        # rounding, the samples and values not at all
        import sawspec.foundations as fnd

        y = 10**5
        table = sw.build_phi_accumulator(y, sw.build_sieves(y))
        monkeypatch.setattr(fnd, "_SIEVE_UNIT", 64)
        acc = sw.build_phi_accumulator(y)
        assert np.array_equal(sw.rtilde_samples(acc), sw.rtilde_samples(table))
        got, want = sw.rtilde_moments_exact(y, 8, acc), sw.rtilde_moments_exact(y, 8, table)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15
        assert sw.r_values(65536, acc) == sw.r_values(65536, table)

    def test_moment_pass_memory(self):
        # counting the sieve: one phi segment, the int64 buffer and the
        # pass's scratch rows, under 4 MB where the table alone was 8 MB
        import tracemalloc

        y = 10**6
        tracemalloc.start()
        try:
            sw.rtilde_moments_exact(y, 8, sw.build_phi_accumulator(y))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_samples_memory(self):
        # counting the sieve: 8 bytes per sample and one segment's work (phi
        # is sieved straight into the samples, beside its int32 smooth parts),
        # at most 8.5 bytes per entry
        import tracemalloc

        y = 10**6
        tracemalloc.start()
        try:
            sw.rtilde_samples(sw.build_phi_accumulator(y))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.5 * y, peak / y

    def test_values_stop_at_the_segment_of_x(self):
        # r_values reads S and phi at floor(x) alone: at y = 1e7 it sieves [0, 10]
        import tracemalloc

        tracemalloc.start()
        try:
            got = sw.r_values(10, sw.build_phi_accumulator(10**7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == sw.r_values(10, sw.build_phi_accumulator(100))
        assert peak < 2**16, peak


class TestRtildeBlocks:
    """The samples regenerated piece by piece from an int32 phi table: the
    array of ``rtilde_samples`` bit for bit, and the same ECDF, tails,
    histogram and summary from it, in about half the array's memory."""

    @pytest.mark.parametrize("y", [2, 3, 8191, 8193, 32767, 32769, 100_003])
    def test_statistics_equal_the_arrays(self, y):
        # y at the ends of 2^13-sample pieces and 2^15-entry table segments
        acc = sw.build_phi_accumulator(y)
        samples = sw.rtilde_samples(acc)
        blocks = sw.rtilde_blocks(acc)
        assert blocks.size == y and blocks.acc.phi.dtype == np.int32
        pieces = [piece.copy() for piece in blocks.blocks(8192)]
        assert all(p.size <= 8192 for p in pieces)
        assert np.array_equal(np.concatenate(pieces).view(np.int64), samples.view(np.int64))
        d, a = sw.make_distribution("R", blocks), sw.make_distribution("R", samples)
        for got, want in zip(histogram(d), histogram(a)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # the CLI's grids, and x with scale * x a sample, where ties count
        on = samples[:: max(1, y // 200)] / a.scale
        for xs in (np.linspace(-4.0, 4.0, 61), [0.5, 1.0, 1.5, 2.0, 2.5, 3.0], on):
            assert np.array_equal(sw.ecdf_scaled(d, xs), sw.ecdf_scaled(a, xs))
            for got, want in zip(sw.tail_frequency(d, xs), sw.tail_frequency(a, xs)):
                assert np.array_equal(got, want)

    def test_a_table_is_read_in_place(self, acc_1m):
        # a given table is read as it is, no int32 table sieved beside it
        assert sw.rtilde_blocks(acc_1m).acc.phi is acc_1m.phi

    @pytest.mark.parametrize(
        "y, digest",
        [
            (2, "db5f662289a9972738235f3cae4b69262524f1851778d468997ecefe7936b1ee"),
            (1000, "257064555d3990df752302edae9e5c7dee90223640a6f286cf12c4061769d473"),
            (32769, "07cd5a28302836ccaedb5b8f2f25ef017754ab7e3df6e7b783d1aada242deea2"),
            (10**6, "dc239df1c3a08e6a0f4cc324d39fb2fcdc7bcc7932d5f29b4e7ea92652c77fc8"),
        ],
    )
    def test_samples_unchanged(self, y, digest):
        # the arithmetic both routes share leaves the array's bytes as they were
        samples = sw.rtilde_samples(sw.build_phi_accumulator(y))
        assert hashlib.sha256(samples.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("stat", ["hist", "ecdf", "summary"])
    def test_peak_per_sample(self, stat):
        # from before the accumulator: the int32 table (4 bytes per sample)
        # with its sieve, then one table segment of S_m and a piece; the array
        # took 8 bytes per sample, and its sorted copy or moment copy 8 more
        import tracemalloc

        y = 10**6
        tracemalloc.start()
        try:
            d = sw.make_distribution("R", sw.rtilde_blocks(sw.build_phi_accumulator(y)))
            if stat == "hist":
                histogram(d)
            elif stat == "ecdf":
                sw.ecdf_scaled(d, np.linspace(-4.0, 4.0, 61))
            else:
                summary(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * y, peak / y


class TestTruncatedModel:
    def test_single_term(self):
        assert sw.sawtooth_model("R", 10.5, 1) == 0.0

    def test_two_terms(self):
        # mu(2) = -1, psi(5.25) = -1/4
        assert sw.sawtooth_model("R", 10.5, 2) == pytest.approx(
            -0.125, abs=1e-15
        )

    def test_mean_gap_to_true_values(self, prefix_1m):
        N = 1000
        u = np.arange(N, 10**5, 7, dtype=float) + 0.5
        S = prefix_1m[np.floor(u).astype(np.int64)].astype(float)
        truth = S / u - P * u
        model = sw.sawtooth_model("R", u, N)
        assert float(np.mean(np.abs(model - truth))) <= 0.05


class TestHistogramSymmetry:
    def test_skewness_small(self, acc_1m):
        samples = sw.rtilde_samples(acc_1m)
        mean = float(np.mean(samples))
        sd = float(np.std(samples))
        skew = float(np.mean((samples - mean) ** 3)) / sd**3
        assert abs(skew) <= 0.05


def _pair_integral_exact(n1: int, n2: int, y: int):
    """Exact int_0^y psi(x/n1) psi(x/n2) dx as a Fraction: full periods
    through the pair correlation plus an integer partial-period sum."""
    T = math.lcm(n1, n2)
    full, rem = divmod(y, T)
    total = full * T * sw.b_exact((n1, n2))
    if rem:
        m = np.arange(rem, dtype=np.int64)
        e1 = 2 * (m % n1) - n1
        e2 = 2 * (m % n2) - n2
        num = int(np.sum(4 + 3 * e1 + 3 * e2 + 3 * e1 * e2))
        total += Fraction(num, 12 * n1 * n2)
    return total


_PAIR_BUDGET = 4096  # pair integrals pair_correlation_stat evaluates


def pair_correlation_stat(N: int, y: int) -> float:
    """sum over N < n1, n2 <= 2N of |(1/y) int_0^y psi(x/n1) psi(x/n2) dx|,
    every inner integral exact."""
    if N < 1 or y < 2 * N:
        raise ValueError("need N >= 1 and y >= 2N")
    if N * N > _PAIR_BUDGET:
        raise ResourceLimitError(f"{N * N} pair integrals exceed budget")
    total = 0.0
    for n1 in range(N + 1, 2 * N + 1):
        for n2 in range(N + 1, 2 * N + 1):
            total += abs(float(_pair_integral_exact(n1, n2, y))) / y
    return total


class TestPairCorrelation:
    def test_single_pair_full_periods(self):
        # N=1: only (2,2); at y a multiple of 2 the mean is exactly 1/12
        assert pair_correlation_stat(1, 10**6) == pytest.approx(1 / 12, abs=1e-15)

    def test_inner_integral_exact_spot_checks(self):
        # (3,4) over a common multiple: gcd^2/(12 n1 n2) = 1/144 per unit mean
        val = _pair_integral_exact(3, 4, 24)
        assert val == Fraction(24, 144) == 24 * Fraction(1, 144)
        # against quadrature on an incomplete period, one smooth cell at a time
        ref = sum(
            quad(lambda x: psi(x / 3) * psi(x / 4), m, m + 1, epsabs=1e-13)[0]
            for m in range(17)
        )
        assert float(_pair_integral_exact(3, 4, 17)) == pytest.approx(ref, abs=1e-10)

    def test_subquadratic_growth(self):
        vals = [pair_correlation_stat(N, 10**6) for N in (8, 16, 32)]
        slopes = [
            math.log(vals[i + 1] / vals[i]) / math.log(2.0) for i in range(2)
        ]
        assert all(s < 2.0 for s in slopes)

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            pair_correlation_stat(200, 10**6)
