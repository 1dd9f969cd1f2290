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
    """Residue-indexed dataset of pi*i*s_hat_q(t) (real numbers), t = 1..q-1."""
    return EmpiricalDistribution("s", -math.pi * spec.values[1:], True)


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


def histogram(dist: EmpiricalDistribution):
    """Counts and edges, Freedman-Diaconis binning."""
    return np.histogram(dist.samples, bins="fd")


def summary(dist: EmpiricalDistribution) -> dict:
    """Min, max, moments 1..6 and the symmetry statistic on x = 0.1..3.0;
    exactly odd samples (v == -v[::-1]) have odd moments exactly 0."""
    moments = empirical_moments(dist.samples, 6)
    if np.array_equal(dist.samples, -dist.samples[::-1]):
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
