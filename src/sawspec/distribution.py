"""Empirical distribution statistics for the bias/spectrum/totient datasets.

One sample container serves the three label conventions; the scaling
constant (e^gamma/2 for the bias and spectrum datasets, 3 e^gamma/pi^2 for
the totient error) is applied at query time, never baked into samples.  A
residue-indexed dataset (C(k) or the spectrum) holds the value at residue k
in position k - 1, so its residue labels are positions, not a stored array.

The samples are an array, or a block source that regenerates them on every
read (``phi_error.rtilde_blocks``): an object with a ``size`` and a method
``blocks(size)`` that yields the samples in order, as float64 pieces of at
most ``size`` entries, each valid until the next is drawn.  Every statistic
but the shift statistic, which needs an array, reads either one a piece of
``_BLOCK`` samples at a time (an array's pieces are views of it): the ECDF,
the tails and the histogram's quartiles sort each piece in one reused
buffer and place their grid in it, the histogram bins it by numpy's own
arithmetic, the moments build its powers in one reused buffer and add the
piece sums exactly.  No statistic copies its samples whole.  Every count
is exact, so every order statistic is the one a full sort gives; the
moments depend on where the pieces start, every ``_BLOCK`` samples in an
array and in ``rtilde_blocks``.  Each statistic takes a number or an array
of x; nothing is cached on the dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import _odd_over_group

__all__ = [
    "EULER_GAMMA",
    "EmpiricalDistribution",
    "make_distribution",
    "from_ck_vector",
    "from_spectrum",
    "ecdf_scaled",
    "tail_frequency",
    "almost_period_stat",
    "symmetry_statistic",
    "histogram",
    "empirical_moments",
    "summary",
]

EULER_GAMMA = 0.5772156649015328606
_EG = math.exp(EULER_GAMMA)

DEFAULT_SCALES = {"C": _EG / 2.0, "s": _EG / 2.0, "R": 3.0 * _EG / math.pi**2}

_BLOCK = 1 << 13  # samples a statistic reads at a time: 64 KB of float64


def _pieces(samples, size: int = _BLOCK):
    """The samples in order, in pieces of at most ``size``: views of an
    array, or the pieces a block source regenerates."""
    if isinstance(samples, np.ndarray):
        return (samples[i : i + size] for i in range(0, samples.size, size))
    return samples.blocks(size)


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Labeled sample set with a query-time scale.

    ``samples`` is a float64 array (made from any sequence) or a block
    source (module note).  ``residue_indexed`` marks samples that come from
    a residue-indexed table, the value at k = 1..q-1 in position k - 1,
    which the shift statistic requires.  An empty sample set and an array
    with non-finite samples are refused, the latter checked a piece at a
    time; a block source is taken as it is.
    """

    label: str
    samples: np.ndarray
    residue_indexed: bool

    def __post_init__(self):
        if self.label not in DEFAULT_SCALES:
            raise ValueError(f"label must be one of {tuple(DEFAULT_SCALES)}")
        samples = self.samples
        if not hasattr(samples, "blocks"):
            samples = np.asarray(samples, dtype=float)
            bad = sum(v.size - np.count_nonzero(np.isfinite(v)) for v in _pieces(samples))
            if bad:
                raise ValueError(f"{bad} of {samples.size} samples are not finite")
        if samples.size == 0:
            raise ValueError("empty sample set")
        object.__setattr__(self, "samples", samples)

    @property
    def scale(self) -> float:
        return DEFAULT_SCALES[self.label]

    @property
    def n(self) -> int:
        return self.samples.size


def make_distribution(label, samples) -> EmpiricalDistribution:
    """Dataset, not residue-indexed, with the label's scale from
    ``DEFAULT_SCALES``."""
    return EmpiricalDistribution(label, samples, False)


def from_ck_vector(vec) -> EmpiricalDistribution:
    """Residue-indexed dataset of the bias values C(k), k = 1..q-1."""
    return EmpiricalDistribution("C", vec.samples, True)


def from_spectrum(spec) -> EmpiricalDistribution:
    """Residue-indexed dataset of pi*i*s_hat_q(t) (real numbers), t = 1..q-1:
    the spectrum's group half written to residue order, then scaled by -pi
    in place; the spectrum's residue vector ``values`` is not materialised."""
    samples = _odd_over_group(spec.context, spec.half, 0.0)
    samples *= -math.pi
    return EmpiricalDistribution("s", samples[1:], True)


def _exactly_odd(x: np.ndarray) -> bool:
    """x == -x[::-1]: the middle sample of an odd count against 0, then the
    first half against the negated reversed tail, a piece at a time."""
    m = x.size // 2
    halves = zip(_pieces(x[:m]), _pieces(x[::-1][:m]))
    return (x.size % 2 == 0 or x[m] == 0) and all(np.array_equal(a, -b) for a, b in halves)


def _ranks(samples, *grids) -> list:
    """``np.searchsorted(np.sort(samples), t, side)`` for each (t, side) of
    ``grids``, in one pass and without a sorted copy of the samples: each
    piece is sorted in one reused buffer, at least as long as the largest
    grid, and each grid is placed in it; the placements, exact counts, are
    summed over the pieces."""
    ranks = [np.zeros(t.shape, dtype=np.intp) for t, _ in grids]
    size = max(_BLOCK, *(t.size for t, _ in grids))
    buffer = np.empty(min(size, samples.size))
    for v in _pieces(samples, size):
        piece = buffer[: v.size]
        piece[:] = v
        piece.sort()
        for (t, side), rank in zip(grids, ranks):
            rank += np.searchsorted(piece, t, side)
    return ranks


def ecdf_scaled(dist: EmpiricalDistribution, x):
    """Fraction of samples <= scale * x, for a number or an array of x."""
    t = np.multiply(dist.scale, x)
    (rank,) = _ranks(dist.samples, (t, "right"))
    return rank / dist.n


def tail_frequency(dist: EmpiricalDistribution, x):
    """(upper, lower): the fractions of samples >= scale * x and
    <= -scale * x, for a number x or an array of x, from one pass."""
    t = np.multiply(dist.scale, x)
    below, lower = _ranks(dist.samples, (t, "left"), (-t, "right"))
    return (dist.n - below) / dist.n, lower / dist.n


def almost_period_stat(dist: EmpiricalDistribution, m: int) -> float:
    """Mean squared shift difference (1/#pairs) sum_k |v(k) - v(k+m)|^2.

    Requires a residue-indexed dataset (samples in k-order 1..q-1); pairs
    whose shifted index lands on the missing residue 0 are skipped and the
    average renormalized over the remaining pairs.  With m' = m mod q != 0
    those are the q - 2 differences v[:q-1-m'] - v[m':] (k + m' < q) followed
    by v[q-m':] - v[:m'-1] (k + m' > q), two slices in k order subtracted
    into one vector (8 bytes per residue) and squared; m' = 0 gives 0.0.
    """
    if not dist.residue_indexed:
        raise ValueError("shift statistic needs a residue-indexed dataset")
    v = dist.samples
    q = dist.n + 1
    m %= q
    if m == 0:
        return 0.0
    diffs = np.empty(q - 2)
    np.subtract(v[: q - 1 - m], v[m:], out=diffs[: q - 1 - m])
    np.subtract(v[q - m :], v[: m - 1], out=diffs[q - 1 - m :])
    diffs *= diffs
    return float(np.sum(diffs)) / (q - 2)


def symmetry_statistic(dist: EmpiricalDistribution, xs) -> float:
    """sup over the grid of |ecdf(x) + ecdf(-x) - 1|, from one ECDF call."""
    xs = np.asarray(xs, dtype=float)
    F = ecdf_scaled(dist, np.concatenate((xs, -xs)))
    return np.max(np.abs(F[: xs.size] + F[xs.size :] - 1.0))


_BINS = 1 << 10  # bins of an order-statistic pass


def _extremes(samples):
    """(min, max): an array's own reductions, which settle a mix of 0.0 and
    -0.0 as ``np.histogram`` does, or one pass over a block source."""
    if isinstance(samples, np.ndarray):
        return samples.min(), samples.max()
    ends = [(v.min(), v.max()) for v in _pieces(samples)]
    return min(a for a, _ in ends), max(b for _, b in ends)


def _counts(samples, bins: int, lo, hi):
    """``np.histogram(samples, bins, (lo, hi))`` for samples in [lo, hi],
    bit for bit: numpy's arithmetic on equal bins, a piece of
    max(_BLOCK, bins) samples at a time (numpy bins its input in blocks
    too).  A sample's bin is estimated as (v - lo) / (hi - lo) * bins and
    corrected against the edges, the last bin closed; lo == hi widens the
    range by 1/2 each way, and edges that fail to increase are refused
    with numpy's error.  Temporaries are the size of a piece or of the
    counts."""
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    if np.any(edges[:-1] >= edges[1:]):
        raise ValueError(
            f"Too many bins for data range. Cannot create {bins} finite-sized bins."
        )
    counts = np.zeros(bins, dtype=np.intp)
    for v in _pieces(samples, max(_BLOCK, bins)):
        f = v - lo
        f /= hi - lo
        f *= bins
        i = f.astype(np.intp)
        del f
        i[i == bins] -= 1
        i[v < edges[i]] -= 1
        i[(v >= edges[1:][i]) & (i != bins - 1)] += 1
        counts += np.bincount(i, minlength=bins)
        del i  # before the next piece is made
    return counts, edges


def _order_statistics(samples, ranks: list[int], lo, hi) -> list:
    """The samples of rank r (0-based) for each r of ``ranks``, all samples
    in [lo, hi].  One pass counts the samples below each edge of _BINS
    equal bins over [lo, hi] (one bin if [lo, hi] is too narrow for
    _BINS), by ``_ranks``, which gives the bin [e_j, e_j+1) holding each
    rank (the last bin closed at hi); a second gathers the samples of
    those bins, piece by piece, and each bin's are sorted.  That copies
    those bins: the CLI's datasets put at most 0.4% of their samples in one
    bin, while concentrated data can put nearly all of them there."""
    if lo == hi:
        return [lo] * len(ranks)
    edges = np.linspace(lo, hi, _BINS + 1)
    if not np.all(edges[:-1] < edges[1:]):
        edges = np.array([lo, hi])
    (below,) = _ranks(samples, (edges, "left"))
    below[-1] = samples.size  # the last bin is closed
    held = {j: [] for j in (np.searchsorted(below, ranks, side="right") - 1).tolist()}
    for v in _pieces(samples):
        for j, parts in held.items():
            upper = np.less_equal if j == edges.size - 2 else np.less
            parts.append(v[(v >= edges[j]) & upper(v, edges[j + 1])])
    found = {}
    for j, parts in held.items():
        inside = np.sort(np.concatenate(parts))
        found.update((r, inside[r - below[j]]) for r in ranks if below[j] <= r < below[j + 1])
    return [found[r] for r in ranks]


def _quartiles(samples, lo, hi) -> np.ndarray:
    """``np.percentile(samples, [75, 25])`` bit for bit, samples in
    [lo, hi], from the four order statistics around them by
    ``_order_statistics``, combined by numpy's linear method: rank
    (n - 1) q, between its floor and the next."""
    index = (samples.size - 1) * np.array([0.75, 0.25])
    prev = np.floor(index).astype(np.intp)
    ranks = [*prev.tolist(), *np.minimum(prev + 1, samples.size - 1).tolist()]
    values = _order_statistics(samples, ranks, lo, hi)
    a, b = np.array(values[:2]), np.array(values[2:])
    t = index - prev
    quartiles = np.add(a, (b - a) * t)
    np.subtract(b, (b - a) * (1 - t), out=quartiles, where=t >= 0.5)
    return quartiles


def histogram(dist: EmpiricalDistribution):
    """Counts and edges of ``np.histogram(samples, bins="fd")``, bit for
    bit, without its copy of the samples: the interquartile range from
    ``_quartiles`` gives the Freedman-Diaconis bin count, and ``_counts``
    bins the samples over [min, max] with that count, a piece at a time."""
    x = dist.samples
    lo, hi = _extremes(x)
    width = 2.0 * np.subtract(*_quartiles(x, lo, hi)) * dist.n ** (-1.0 / 3.0)
    bins = int(np.ceil(np.subtract(hi, lo) / width)) if width else 1
    return _counts(x, bins, lo, hi)


def empirical_moments(samples, ell_max: int) -> list[float]:
    """Plain power means (1/n) sum v^ell for ell = 1..ell_max, of an array
    (made from any sequence) or a block source, by ``_pieces``: each
    piece's powers, p = 1 then p = p v, are built in one reused buffer,
    and each power's piece sums are added by ``math.fsum``."""
    if not hasattr(samples, "blocks"):
        samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empty sample set")
    sums = [[] for _ in range(ell_max)]
    buffer = np.empty(min(_BLOCK, samples.size))
    for v in _pieces(samples):
        p = buffer[: v.size]
        p.fill(1.0)
        for piece_sums in sums:
            p *= v
            piece_sums.append(float(np.sum(p)))
    return [math.fsum(piece_sums) / samples.size for piece_sums in sums]


def summary(dist: EmpiricalDistribution) -> dict:
    """Min, max, moments 1..6 and the symmetry statistic on x = 0.1..3.0,
    of an array or a block source, each read a piece at a time; an exactly
    odd array (v == -v[::-1]) has odd moments exactly 0.  A block source
    whose pieces start every ``_BLOCK`` samples, as ``rtilde_blocks``' do,
    has the summary of the array of its samples, bit for bit."""
    x = dist.samples
    moments = empirical_moments(x, 6)
    if isinstance(x, np.ndarray) and _exactly_odd(x):
        moments[0::2] = [0.0, 0.0, 0.0]
    lo, hi = _extremes(x)
    return {
        "label": dist.label,
        "count": dist.n,
        "scale": dist.scale,
        "min": float(lo),
        "max": float(hi),
        "moments": moments,
        "symmetry_stat": symmetry_statistic(dist, np.linspace(0.1, 3.0, 30)),
    }
