import math
import re
import tracemalloc

import numpy as np
import pytest

import sawspec as sw
from sawspec import distribution as dist

from oracles import ecdf_loop, extreme_report, extremes, histogram_fd, symmetry_loop, tail_loop

EG_HALF = math.exp(0.5772156649015329) / 2.0


@pytest.fixture(scope="module")
def dist_ck(ck_10007):
    return dist.from_ck_vector(ck_10007)


@pytest.fixture(scope="module")
def dist_spec(spec_10007):
    return dist.from_spectrum(spec_10007)


class TestConstruction:
    def test_scales(self, dist_ck, dist_spec):
        assert dist_ck.scale == pytest.approx(EG_HALF, abs=1e-14)
        assert dist_spec.scale == pytest.approx(EG_HALF, abs=1e-14)
        d = dist.make_distribution("R", [0.1, -0.2])
        assert d.scale == pytest.approx(3 * math.exp(0.5772156649015329) / math.pi**2)

    def test_sample_counts(self, dist_ck, dist_spec):
        assert dist_ck.n == 10007 - 1
        assert dist_spec.n == 10007 - 1

    def test_spectrum_samples_written_from_the_half(self):
        # from_spectrum scatters -pi * half itself: the spectrum's residue
        # vector is never written, and the samples are -pi * values[1:] bit
        # for bit
        spec = sw.spectrum_all(1009)
        d = dist.from_spectrum(spec)
        assert "values" not in vars(spec)
        expected = -math.pi * spec.values[1:]
        assert np.array_equal(d.samples.view(np.int64), expected.view(np.int64))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dist.make_distribution("C", [])

    @pytest.mark.parametrize(
        "samples, shape", [(np.ones((3, 4)), "(3, 4)"), (2.5, "()"), ([[1.0], [2.0]], "(2, 1)")]
    )
    def test_not_one_dimensional_refused(self, samples, shape):
        # a 2-D array was taken, and every statistic then raised a broadcast
        # error; a scalar raised IndexError in _pieces
        pattern = "^" + re.escape(f"samples must be one-dimensional, not of shape {shape}") + "$"
        with pytest.raises(ValueError, match=pattern):
            dist.make_distribution("C", samples)
        with pytest.raises(ValueError, match=pattern):
            dist.EmpiricalDistribution("R", samples, True)
        with pytest.raises(ValueError, match=pattern):
            sw.empirical_moments(samples, 2)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            dist.make_distribution("Z", [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_by_every_constructor(self, bad):
        # a NaN once gave an ECDF of 0.75 at x = 100 and counted in the upper
        # tail; every constructor now refuses it, and +-inf, naming the count
        with pytest.raises(ValueError, match="^1 of 4 samples are not finite$"):
            dist.make_distribution("C", [-1, 0.5, bad, 2])
        with pytest.raises(ValueError, match="^2 of 3 samples are not finite$"):
            dist.EmpiricalDistribution("R", np.array([bad, 1.0, bad]), False)
        q = 11
        values = np.arange(q, dtype=float) - 5.0
        values[0], values[3] = np.nan, bad  # entry 0 is not a sample
        with pytest.raises(ValueError, match=f"^1 of {q - 1} samples are not finite$"):
            dist.from_ck_vector(sw.CkVector(q, values, "characters"))
        spec = sw.spectrum_all(q)
        half = spec.half.copy()
        half[2] = bad  # a half entry is written to two residues, t and q - t
        with pytest.raises(ValueError, match=f"^2 of {q - 1} samples are not finite$"):
            dist.from_spectrum(sw.Spectrum(q, half, spec.context))

    def test_non_finite_counted_across_pieces_without_a_copy(self):
        # the check reads a piece at a time: bad samples in several pieces are
        # all counted, and a float64 array is taken with no full-size temporary
        x = np.linspace(-1.0, 1.0, 1_000_000)
        tracemalloc.start()
        try:
            d = dist.make_distribution("R", x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.samples is x and peak < 0.1 * x.size, peak
        x[[0, 8191, 8192, 500_000, 999_999]] = [np.nan, np.inf, -np.inf, np.nan, np.inf]
        with pytest.raises(ValueError, match="^5 of 1000000 samples are not finite$"):
            dist.make_distribution("R", x)


class TestEcdf:
    def test_limits(self, dist_ck):
        assert dist.ecdf_scaled(dist_ck, 1e9) == 1.0
        assert dist.ecdf_scaled(dist_ck, -1e9) == 0.0

    def test_median_exact(self, dist_ck, dist_spec):
        assert dist.ecdf_scaled(dist_ck, 0.0) == 0.5
        assert dist.ecdf_scaled(dist_spec, 0.0) == 0.5

    def test_monotone(self, dist_ck):
        xs = np.linspace(-3, 3, 41)
        vals = [dist.ecdf_scaled(dist_ck, x) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_symmetry_pointwise(self, dist_ck):
        q = 10007
        for x in (0.5, 1.0, 2.0):
            gap = abs(
                dist.ecdf_scaled(dist_ck, x) + dist.ecdf_scaled(dist_ck, -x) - 1.0
            )
            assert gap <= 2.0 / math.sqrt(q)

    def test_permutation_stability(self, ck_10007):
        base = dist.from_ck_vector(ck_10007)
        rng = np.random.default_rng(0)
        shuffled = dist.make_distribution(
            "C", rng.permutation(ck_10007.samples.copy())
        )
        for x in (-1.0, 0.0, 0.3, 2.2):
            assert dist.ecdf_scaled(base, x) == dist.ecdf_scaled(shuffled, x)


class TestTails:
    def test_beyond_extremes(self, dist_ck):
        up, lo = dist.tail_frequency(dist_ck, 1e9)
        assert up == 0.0
        assert lo == 0.0

    def test_two_sided_balance(self, dist_ck):
        q = 10007
        up, lo = dist.tail_frequency(dist_ck, 1.0)
        assert abs(up - lo) <= 2.0 / math.sqrt(q)

    def test_monotone_decay(self, dist_ck):
        up, _ = dist.tail_frequency(dist_ck, [0.5, 1.0, 2.0])
        assert up[0] >= up[1] >= up[2]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


class TestArrayStatistics:
    """The array calls against the scalar loops of the oracles, bit for bit:
    counting the samples a piece at a time changes no value."""

    @pytest.fixture(scope="class")
    def datasets(self, dist_ck, dist_spec):
        rtilde = dist.make_distribution(
            "R", sw.rtilde_samples(sw.build_phi_accumulator(100_000))
        )
        return {"ck": dist_ck, "spectrum": dist_spec, "rtilde": rtilde}

    @staticmethod
    def grids(d):
        rng = np.random.default_rng(23)
        return [
            np.linspace(-4.0, 4.0, 61),
            np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
            np.linspace(0.1, 3.0, 30),
            rng.uniform(-4.0, 4.0, 200),
            # x at or within rounding of the samples, where the side decides ties
            rng.choice(d.samples, 50) / d.scale,
        ]

    @pytest.mark.parametrize("source", ["ck", "spectrum", "rtilde"])
    def test_ecdf_matches_scalar_loop(self, datasets, source):
        d = datasets[source]
        for xs in self.grids(d):
            assert np.array_equal(_bits(dist.ecdf_scaled(d, xs)), _bits(ecdf_loop(d, xs)))

    @pytest.mark.parametrize("source", ["ck", "spectrum", "rtilde"])
    def test_tails_match_scalar_loop(self, datasets, source):
        d = datasets[source]
        for xs in self.grids(d):
            up, lo = dist.tail_frequency(d, xs)
            want_up, want_lo = tail_loop(d, xs)
            assert np.array_equal(_bits(up), _bits(want_up))
            assert np.array_equal(_bits(lo), _bits(want_lo))

    @pytest.mark.parametrize("source", ["ck", "spectrum", "rtilde"])
    def test_symmetry_matches_scalar_loop(self, datasets, source):
        d = datasets[source]
        for xs in self.grids(d):
            got = dist.symmetry_statistic(d, xs)
            assert _bits(got) == _bits(symmetry_loop(d, xs))
            assert _bits(got) == _bits(dist.symmetry_statistic(d, xs.tolist()))

    def test_a_number_gives_floats(self, dist_ck):
        assert isinstance(dist.ecdf_scaled(dist_ck, 0.5), float)
        assert all(isinstance(v, float) for v in dist.tail_frequency(dist_ck, 0.5))


class TestExtremes:
    def test_odd_pairing(self, dist_ck):
        mn, amn, mx, amx = extremes(dist_ck)
        assert mx == -mn
        assert amn + amx == 10007

    @pytest.mark.parametrize("q", [1009, 10007, 100003])
    def test_residue_labels_match_a_label_array(self, q):
        # the labels of a residue-indexed dataset are its positions + 1: the
        # same ints as the label array np.arange(1, q) read at argmin, argmax
        labels = np.arange(1, q)
        spec = dist.from_spectrum(sw.spectrum_all(q))
        ck = dist.from_ck_vector(sw.ck_all(q, "characters", table=sw.build_table(q)))
        for d in (spec, ck):
            s = d.samples
            lo, hi = int(np.argmin(s)), int(np.argmax(s))
            expected = (float(s[lo]), int(labels[lo]), float(s[hi]), int(labels[hi]))
            assert extremes(d) == expected
        plain = dist.make_distribution("C", [2.0, -1.0, 3.0])
        assert extremes(plain) == (-1.0, 1, 3.0, 2)

    def test_report_ratio(self, dist_ck):
        rep = extreme_report(dist_ck, 10007)
        assert 0.0 < rep["max_over_loglog_scale"] <= 1.2


def _almost_period_fancy(d, m: int) -> float:
    """The shift statistic by fancy indexing over k = 1..q-1: the reference
    for almost_period_stat's two slices."""
    v = d.samples
    q = d.n + 1
    k = np.arange(1, q)
    shifted = (k + m) % q
    keep = shifted != 0
    diffs = v[k[keep] - 1] - v[shifted[keep] - 1]
    return float(np.sum(diffs * diffs)) / int(np.sum(keep))


class TestAlmostPeriod:
    @pytest.mark.parametrize("q", [3, 5, 101, 1009, 10007, 100003])
    def test_slices_match_fancy_index_bitwise(self, q):
        spec = dist.from_spectrum(sw.spectrum_all(q))
        ck = dist.from_ck_vector(sw.ck_all(q, "characters", table=sw.build_table(q)))
        for d in (spec, ck):
            for m in (0, 1, 2, 60, q - 2, q - 1, q, -5, 3 * q + 7):
                got = np.float64(dist.almost_period_stat(d, m))
                expected = np.float64(_almost_period_fancy(d, m))
                assert got.view(np.int64) == expected.view(np.int64), (q, m)

    def test_peak_is_one_difference_vector(self):
        # the two slice differences are written into one vector (8 bytes per
        # residue); two difference arrays and their concatenation would be 16
        q = 100003
        d = dist.from_ck_vector(sw.ck_all(q, "truncated"))
        tracemalloc.start()
        try:
            dist.almost_period_stat(d, 60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 8 * (q - 2) <= peak < 9 * q

    def test_zero_shift(self, dist_ck):
        assert dist.almost_period_stat(dist_ck, 0) == 0.0

    def test_requires_index(self):
        d = dist.make_distribution("C", [1.0, -1.0])
        with pytest.raises(ValueError):
            dist.almost_period_stat(d, 1)

    def test_small_shift_smaller_than_generic(self, dist_ck):
        # 60 is a multiple of everything below 7; 61 is not
        s60 = dist.almost_period_stat(dist_ck, 60)
        s61 = dist.almost_period_stat(dist_ck, 61)
        assert s60 < s61

    def test_double_shift_bound_shape(self, dist_ck):
        s60 = dist.almost_period_stat(dist_ck, 60)
        s120 = dist.almost_period_stat(dist_ck, 120)
        assert s120 <= 2.0 * 4.0 * s60


class TestSummary:
    def test_spectrum_second_moment(self, dist_spec):
        second = sw.empirical_moments(dist_spec.samples, 2)[1]
        assert second == pytest.approx(5 * math.pi**2 / 144, rel=0.05)

    def test_summary_fields(self, dist_ck):
        s = dist.summary(dist_ck)
        assert set(s) == {
            "label",
            "count",
            "scale",
            "min",
            "max",
            "moments",
            "symmetry_stat",
        }
        assert len(s["moments"]) == 6
        assert s["symmetry_stat"] <= 3.0 / math.sqrt(10007)

    @pytest.mark.parametrize("q", [1009, 10007])
    @pytest.mark.parametrize("source", ["ck", "spectrum"])
    def test_odd_moments_of_exactly_odd_data_are_zero(self, request, source, q):
        # an exactly odd vector has a symmetric sample multiset, so its odd
        # moments are 0, not the rounding of their sums; even orders are the
        # plain power means, bit for bit
        if source == "ck":
            d = dist.from_ck_vector(request.getfixturevalue(f"ck_{q}"))
        else:
            d = dist.from_spectrum(request.getfixturevalue(f"spec_{q}"))
        assert np.array_equal(d.samples, -d.samples[::-1])
        moments = dist.summary(d)["moments"]
        assert moments[0::2] == [0.0, 0.0, 0.0]
        assert moments[1::2] == sw.empirical_moments(d.samples, 6)[1::2]

    def test_moments_of_other_data_are_the_power_means(self):
        rtilde = dist.make_distribution(
            "R", sw.rtilde_samples(sw.build_phi_accumulator(20_000))
        )
        # odd but for one sample: the odd moments are not set to 0
        near_odd = dist.make_distribution("C", [-2.0, -1.0, 1.0, 2.5])
        for d in (rtilde, near_odd):
            moments = dist.summary(d)["moments"]
            assert moments == sw.empirical_moments(d.samples, 6)
            assert moments[2] != 0.0

    def test_odd_samples_match_the_full_sort_bitwise(self):
        # the oddness test reads half against the reversed tail, with no full
        # negated copy: the summary is the one from the full sort and the six
        # power sums, bit for bit, on odd samples (quantised, with ties on the
        # grid, all zero) and on samples odd but for one sample
        rng = np.random.default_rng(7)
        xs = np.linspace(0.1, 3.0, 30)
        grid = dist.DEFAULT_SCALES["C"] * xs
        for n in (1, 2, 3, 8, 9, 1001):
            h = rng.standard_normal(n // 2)
            mid = [0.0] * (n % 2)
            odd = np.concatenate((h, mid, -h[::-1]))
            tied = np.concatenate((np.resize(grid, n // 2), mid, -np.resize(grid, n // 2)[::-1]))
            off = odd.copy()
            off[0] += 1.0
            for v in (odd, np.round(4 * odd) / 4, tied, np.zeros(n), off):
                d = dist.make_distribution("C", v)
                got = dist.summary(d)
                moments = sw.empirical_moments(v, 6)
                if np.array_equal(v, -v[::-1]):
                    moments[0::2] = [0.0, 0.0, 0.0]
                F = dist.ecdf_scaled(d, np.concatenate((xs, -xs)))
                symmetry = np.max(np.abs(F[:30] + F[30:] - 1.0))
                got_all = [*got["moments"], got["symmetry_stat"], got["min"], got["max"]]
                want_all = [*moments, symmetry, np.min(v), np.max(v)]
                assert np.array_equal(
                    np.array(got_all).view(np.int64), np.array(want_all).view(np.int64)
                )

    @pytest.mark.parametrize("odd", [True, False])
    def test_array_summary_copies_no_samples(self, odd):
        # the moments' powers, the oddness test (run to its end: odd, or odd
        # but for the last sample of the first half) and the symmetry
        # statistic's sort each hold a piece: under 0.5 bytes per sample,
        # where the moment copy took 8
        h = np.random.default_rng(6).standard_normal(500_000)
        x = np.concatenate((h, -h[::-1]))
        x[h.size - 1] += 0.0 if odd else 1.0
        d = dist.make_distribution("C", x)
        tracemalloc.start()
        try:
            moments = dist.summary(d)["moments"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (moments[0] == 0.0) == odd
        assert peak < 0.5 * x.size, peak / x.size

    def test_keeps_nothing_on_the_dataset(self, ck_10007):
        d = dist.from_ck_vector(ck_10007)
        dist.summary(d)
        assert set(vars(d)) == {"label", "samples", "residue_indexed"}

    def test_large_q_peak_and_nothing_left_live(self):
        # the summary's pieces and the shift statistic's difference vector
        # live only while they run: at most 8.5 bytes per residue above the
        # live vectors (8.0 measured, the difference vector), none of it left
        # behind
        q = 1_000_003
        d = dist.from_ck_vector(sw.ck_all(q, "characters", table=sw.build_table(q)))
        tracemalloc.start()
        try:
            dist.summary(d)
            dist.almost_period_stat(d, 60)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8.5 * (q - 1), peak / (q - 1)
        assert current < q - 1, current / (q - 1)

    def test_histogram(self, dist_ck):
        counts, edges = dist.histogram(dist_ck)
        assert counts.sum() == dist_ck.n
        assert len(edges) == len(counts) + 1


def _same_histogram(samples) -> None:
    got = dist.histogram(sw.make_distribution("R", samples))
    want = histogram_fd(samples)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g.view(np.uint8), w.view(np.uint8))


class TestCopyFreeHistogram:
    """The Freedman-Diaconis histogram from four order statistics and block
    passes: counts and edges bit for bit as ``np.histogram(bins="fd")``."""

    def test_quartiles_are_numpys(self):
        # ranks (n - 1) q fall on quarters: each of t = 0, 1/4, 1/2, 3/4
        rng = np.random.default_rng(7)
        for n in range(1, 60):
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            got = dist._quartiles(x, x.min(), x.max())
            assert np.array_equal(got.view(np.int64), np.percentile(x, [75, 25]).view(np.int64)), n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_few_samples(self, n):
        rng = np.random.default_rng(n)
        _same_histogram(rng.standard_normal(n))
        _same_histogram(np.arange(n, dtype=float) ** 2)

    def test_all_equal(self):
        # IQR 0 and min == max: one bin of width 1 about the value
        _same_histogram(np.full(1000, 2.5))
        _same_histogram(np.full(1, -0.0))

    def test_ties_straddle_the_quartile_ranks(self):
        # n = 1001: ranks 250 and 750 fall inside runs of equal values; n = 1002
        # puts the 25th and 75th percentiles between ranks in different runs
        for n in (1001, 1002, 1003, 1004):
            x = np.repeat(np.arange(8, dtype=float), -(-n // 8))[:n]
            _same_histogram(np.random.default_rng(n).permutation(x))

    def test_spike_and_narrow_runs(self):
        # a bin holding most samples (a spike of 900 000 zeros), and a range
        # too narrow for 4096 bins (3000 values an ulp apart), counted in one
        rng = np.random.default_rng(5)
        _same_histogram(np.concatenate([np.zeros(900_000), rng.standard_normal(100_000)]))
        for span in (3000, 7000):
            _same_histogram(rng.permutation(1.0 + np.arange(200_000) % span * np.finfo(float).eps))

    def test_heavy_tails(self):
        # many bins: each pass reads as many samples as there are bins
        _same_histogram(np.random.default_rng(6).standard_cauchy(20_000))

    @pytest.mark.parametrize(
        "lo, hi",
        [(-0.3877809, 0.3825101), (0.0, 1.0), (1e-3, 1e3), (-1e300, 1e300), (5e-324, 1e-300)],
    )
    def test_counts_at_the_edges(self, lo, hi):
        # samples on each edge and an ulp either side, where numpy's estimate
        # (v - lo) / (hi - lo) * bins lands a bin off and its corrections decide;
        # 65 537 bins is more than a piece of _BLOCK samples
        for bins in (1, 3, 7, 100, 171, 4096, 65_537):
            edges = np.linspace(lo, hi, bins + 1)
            x = np.concatenate((edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)))
            x = x[(x >= lo) & (x <= hi)]
            for got, want in zip(dist._counts(x, bins, lo, hi), np.histogram(x, bins, (lo, hi))):
                assert got.dtype == want.dtype and np.array_equal(got, want), bins

    def test_read_only_samples(self, dist_spec):
        # the memoised spectrum vector is read-only; its dataset is a copy,
        # so a read-only array is made here
        x = np.array(dist_spec.samples)
        x.flags.writeable = False
        _same_histogram(x)

    def test_readme_datasets(self, acc_1m):
        q = 100003
        for d in (
            sw.from_ck_vector(sw.ck_all(q, "characters", table=sw.build_table(q))),
            sw.from_spectrum(sw.spectrum_all(10007)),
            sw.make_distribution("R", sw.rtilde_samples(acc_1m)),
        ):
            _same_histogram(d.samples)

    def test_transient_memory(self, acc_1m):
        # numpy's FD rule copies the samples (8 MB at 1e6) to take percentiles
        d = sw.make_distribution("R", sw.rtilde_samples(acc_1m))
        tracemalloc.start()
        try:
            dist.histogram(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


class _Blocks:
    """An array read through the block-source protocol: each piece is
    copied into one reused buffer, as a source that regenerates its samples
    writes them, so a statistic that kept a piece would read stale values."""

    def __init__(self, x):
        self.x = x
        self.size = x.size

    def blocks(self, size):
        buffer = np.empty(min(size, self.size))
        for i in range(0, self.size, size):
            piece = buffer[: min(size, self.size - i)]
            piece[:] = self.x[i : i + size]
            yield piece


class TestBlockSource:
    """The order statistics read a block source as they read an array, and
    both give the full sort's counts: the ECDF, tails and symmetry against
    the scalar loops, the histogram against numpy's, bit for bit."""

    @staticmethod
    def on_samples(d):
        # x with scale * x exactly a sample, where the side decides the count
        v = d.samples[:: max(1, d.n // 400)]
        xs = v / d.scale
        return xs[np.multiply(d.scale, xs) == v]

    @pytest.mark.parametrize("source", ["ck", "spectrum", "rtilde"])
    def test_counts_on_grid_points_that_are_samples(self, dist_ck, dist_spec, source):
        rtilde = dist.make_distribution("R", sw.rtilde_samples(sw.build_phi_accumulator(30_000)))
        d = {"ck": dist_ck, "spectrum": dist_spec, "rtilde": rtilde}[source]
        blocks = dist.EmpiricalDistribution(d.label, _Blocks(d.samples), False)
        xs = self.on_samples(d)
        assert xs.size > 100
        for grid in (xs, np.concatenate((xs, -xs, [0.0, 1e9, -1e9]))):
            for e in (d, blocks):
                assert np.array_equal(_bits(dist.ecdf_scaled(e, grid)), _bits(ecdf_loop(d, grid)))
                up, lo = dist.tail_frequency(e, grid)
                want_up, want_lo = tail_loop(d, grid)
                assert np.array_equal(_bits(up), _bits(want_up))
                assert np.array_equal(_bits(lo), _bits(want_lo))
                assert _bits(dist.symmetry_statistic(e, grid)) == _bits(symmetry_loop(d, grid))

    def test_a_grid_longer_than_a_piece(self):
        # each piece is at least as long as the grid, which it is placed in
        x = np.random.default_rng(3).standard_normal(3 * 8192 + 5)
        d = dist.make_distribution("C", _Blocks(x))
        grid = np.linspace(-3.0, 3.0, 20_001)
        assert np.array_equal(dist.ecdf_scaled(d, grid), ecdf_loop(dist.make_distribution("C", x), grid))

    @pytest.mark.parametrize("n", [1, 2, 1001, 1002, 1003, 1004, 3 * 8192 + 5])
    def test_ties_straddle_the_quartile_ranks(self, n):
        # ranks (n - 1)/4 and 3(n - 1)/4 inside runs of equal values, and the
        # percentiles between ranks in different runs, over several pieces
        x = np.repeat(np.arange(8, dtype=float), -(-n // 8))[:n]
        x = np.random.default_rng(n).permutation(x)
        blocks = _Blocks(x)
        got = dist._quartiles(blocks, x.min(), x.max())
        assert np.array_equal(got.view(np.int64), np.percentile(x, [75, 25]).view(np.int64))
        counts, edges = dist.histogram(dist.make_distribution("R", blocks))
        want_counts, want_edges = histogram_fd(x)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(edges.view(np.int64), want_edges.view(np.int64))

    @pytest.mark.parametrize("y", [2, 3, 8191, 8193, 32767, 32769, 100_003])
    def test_summary_of_rtilde_blocks_is_the_arrays(self, y):
        # y at the ends of 2^13-sample pieces and 2^15-entry table segments:
        # both read pieces that start every 2^13 samples, so the moments add
        # the same piece sums
        acc = sw.build_phi_accumulator(y)
        got = dist.summary(sw.make_distribution("R", sw.rtilde_blocks(acc)))
        want = dist.summary(sw.make_distribution("R", sw.rtilde_samples(acc)))
        assert got.keys() == want.keys() and got["label"] == want["label"]

        def numbers(s):
            values = [s["count"], s["scale"], s["min"], s["max"], *s["moments"]]
            return np.array([*values, s["symmetry_stat"]], dtype=float).view(np.int64)

        assert np.array_equal(numbers(got), numbers(want))

    def test_array_ecdf_and_tails_copy_no_samples(self):
        # the sorted copy they took (8 bytes per sample) is one sorted piece
        x = np.random.default_rng(4).standard_normal(1_000_000)
        d = dist.make_distribution("R", x)
        for call in (
            lambda: dist.ecdf_scaled(d, np.linspace(-4.0, 4.0, 61)),
            lambda: dist.tail_frequency(d, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
        ):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.5 * x.size, peak / x.size
