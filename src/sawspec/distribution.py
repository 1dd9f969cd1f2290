"""Empirical distribution statistics for the bias/spectrum/totient datasets.

One sample container serves the three label conventions; the scaling
constant (e^gamma/2 for the bias and spectrum datasets, 3 e^gamma/pi^2 for
the totient error) is applied at query time, never baked into samples.  A
residue-indexed dataset (C(k) or the spectrum) holds the value at residue k
in position k - 1, so its residue labels are positions, not a stored array.
Each statistic takes a number or an array of x and sorts at most once per
call; nothing is cached on the dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characters import _odd_over_group
from .moments import empirical_moments

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
    "summary",
]

EULER_GAMMA = 0.5772156649015328606
_EG = math.exp(EULER_GAMMA)

DEFAULT_SCALES = {"C": _EG / 2.0, "s": _EG / 2.0, "R": 3.0 * _EG / math.pi**2}


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Labeled sample set with a query-time scale.

    ``residue_indexed`` marks samples that come from a residue-indexed table,
    the value at k = 1..q-1 in position k - 1, which the shift statistic
    requires.
    """

    label: str
    samples: np.ndarray
    residue_indexed: bool

    def __post_init__(self):
        if self.label not in DEFAULT_SCALES:
            raise ValueError(f"label must be one of {tuple(DEFAULT_SCALES)}")
        samples = np.asarray(self.samples, dtype=float)
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
    """x == -x[::-1], comparing the first half with the negated reversed
    tail (and the middle sample of an odd count with 0): no full copy."""
    m = x.size // 2
    return np.array_equal(x[:m], -x[: x.size - 1 - m : -1]) and (
        x.size % 2 == 0 or x[m] == 0
    )


def ecdf_scaled(dist: EmpiricalDistribution, x):
    """Fraction of samples <= scale * x, for a number or an array of x."""
    t = np.multiply(dist.scale, x)
    return np.searchsorted(np.sort(dist.samples), t, side="right") / dist.n


def tail_frequency(dist: EmpiricalDistribution, x):
    """(upper, lower): the fractions of samples >= scale * x and
    <= -scale * x, for a number x or an array of x, from one sort."""
    s, t = np.sort(dist.samples), np.multiply(dist.scale, x)
    upper = (dist.n - np.searchsorted(s, t, side="left")) / dist.n
    return upper, np.searchsorted(s, -t, side="right") / dist.n


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


_BLOCK = 1 << 13  # samples a histogram pass reads at a time: 64 KB of float64
_BINS = 1 << 12  # bins of an order-statistic pass


def _counts(x: np.ndarray, bins: int, lo, hi):
    """``np.histogram(x, bins, (lo, hi))``, max(_BLOCK, bins) samples at a
    time: the same counts and edges, with temporaries the size of a block
    or of the counts."""
    counts = np.zeros(bins, dtype=np.intp)
    step = max(_BLOCK, bins)
    for i in range(0, x.size, step):
        part, edges = np.histogram(x[i : i + step], bins, (lo, hi))
        counts += part
    return counts, edges


def _order_statistics(x: np.ndarray, ranks: list[int], lo, hi) -> list:
    """The samples of rank r (0-based) of x, all in [lo, hi], for each r of
    ``ranks``.  One pass counts them in _BINS equal bins (one bin if
    [lo, hi] is too narrow for _BINS), and the samples of each bin holding a
    rank are gathered one block at a time and sorted.  That copies one bin:
    the CLI's datasets put at most 0.07% of their samples in one bin, while
    concentrated data can put nearly all of them there."""
    if lo == hi:
        return [lo] * len(ranks)
    bins = _BINS if np.all(np.diff(np.linspace(lo, hi, _BINS + 1)) > 0) else 1
    counts, edges = _counts(x, bins, lo, hi)
    above = np.cumsum(counts)
    found = {}
    for j in sorted(set(np.searchsorted(above, ranks, side="right").tolist())):
        a, b = edges[j], edges[j + 1]
        upper = np.less_equal if j == bins - 1 else np.less  # the last bin is closed
        blocks = (x[i : i + _BLOCK] for i in range(0, x.size, _BLOCK))
        inside = np.sort(np.concatenate([v[(v >= a) & upper(v, b)] for v in blocks]))
        below = above[j] - counts[j]
        found.update((r, inside[r - below]) for r in ranks if below <= r < above[j])
    return [found[r] for r in ranks]


def _quartiles(x: np.ndarray, lo, hi) -> np.ndarray:
    """``np.percentile(x, [75, 25])`` bit for bit, x in [lo, hi], from the
    four order statistics around them by ``_order_statistics``, combined by
    numpy's linear method: rank (n - 1) q, between its floor and the next."""
    index = (x.size - 1) * np.array([0.75, 0.25])
    prev = np.floor(index).astype(np.intp)
    ranks = [*prev.tolist(), *np.minimum(prev + 1, x.size - 1).tolist()]
    values = _order_statistics(x, ranks, lo, hi)
    a, b = np.array(values[:2]), np.array(values[2:])
    t = index - prev
    quartiles = np.add(a, (b - a) * t)
    np.subtract(b, (b - a) * (1 - t), out=quartiles, where=t >= 0.5)
    return quartiles


def histogram(dist: EmpiricalDistribution):
    """Counts and edges of ``np.histogram(samples, bins="fd")``, bit for
    bit, without its copy of the samples: the interquartile range from
    ``_quartiles`` gives the Freedman-Diaconis bin count, and
    ``np.histogram`` bins the samples over [min, max] with that count, one
    block at a time."""
    x = dist.samples
    lo, hi = x.min(), x.max()
    width = 2.0 * np.subtract(*_quartiles(x, lo, hi)) * x.size ** (-1.0 / 3.0)
    bins = int(np.ceil(np.subtract(hi, lo) / width)) if width else 1
    return _counts(x, bins, lo, hi)


def summary(dist: EmpiricalDistribution) -> dict:
    """Min, max, moments 1..6 and the symmetry statistic on x = 0.1..3.0;
    exactly odd samples (v == -v[::-1]) have odd moments exactly 0."""
    moments = empirical_moments(dist.samples, 6)
    if _exactly_odd(dist.samples):
        moments[0::2] = [0.0, 0.0, 0.0]
    return {
        "label": dist.label,
        "count": dist.n,
        "scale": dist.scale,
        "min": float(np.min(dist.samples)),
        "max": float(np.max(dist.samples)),
        "moments": moments,
        "symmetry_stat": symmetry_statistic(dist, np.linspace(0.1, 3.0, 30)),
    }
