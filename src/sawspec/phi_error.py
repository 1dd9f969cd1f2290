"""The error term in the totient summatory asymptotic and its moments
(its truncated Mobius-sawtooth model is ``moments.sawtooth_model("R", ...)``).

R(x) is the deviation of sum_{n<=x} phi(n) from 3x^2/pi^2 and
Rt(u) = R(u)/u - phi(u)/(2u) its normalized form (the phi correction only
at integers).  Between consecutive integers Rt is a rational function, so
the moment integrals over [0, y] split into one smooth integral per unit
interval.

The phi stream.  The accumulator builds no table.  Each statistic sieves
phi on [0, stop] itself, segment by segment, from the segmented
multiplicative sieve of ``foundations`` (``phi_segments(stop)``): a
segment is 2^15 ceil(sqrt(stop) / 2^9) entries, about 64 sqrt(stop), and
so a multiple of the block grid below.  The prefix sums S_m are summed in
place per segment with the running total carried.  What holds memory:
the sieve's int32 smooth parts of one segment, and the segment's phi and
S_m, either an int32 segment of phi copied into an int64 buffer reused
across segments (1.1 MB at y = 1e6), or, for the samples, phi sieved as
float64 straight into their own array (0.35 MB beside it).  Beyond that,
the moments hold the pass's scratch rows (four float64 rows and one long
double row of 2^15), the array of samples (``rtilde_samples``) its 8
bytes per entry, and the values stop at the segment holding floor(x).  A
``build_sieves`` table passed in is read in place instead, 2^15 entries
per segment, through the same copy and sum.  The samples as a block
source (``rtilde_blocks``) are no array: phi is sieved once into an int32
table (4 bytes per sample), which that table branch reads on every pass
of a statistic, and each piece of a segment's S_m is turned into its
samples in place.  With one segment of S_m (0.26 MB) and a piece's work
beside the table, every statistic of the samples stays under 4.5 bytes
per sample at y = 1e6 (4.46, at the table's sieve), where their array
alone takes 8.

Numerical note.  Expanding those integrals in powers of u cancels
catastrophically for large m (terms of size (0.3 m)^ell against O(1)
integrals).  With P = 3/pi^2 and u = m + v, 0 <= v < 1, the integrand is
evaluated in the v-form

    Rt(m + v) = (d0 + d1 v + d2 v^2) / (m + v),
    d0 = S_m - P m^2 = R(m),  d1 = -2 P m,  d2 = -P,

whose numerator has the size of R(m), so Rt is accurate to float64
resolution at every v.  Each interval's integral of Rt^ell is an n-point
Gauss-Legendre sum, all orders ell from the same node values.

Block grid.  The unit intervals are integrated in the fixed blocks
[1, 128), [128, 2^15) and [k 2^15, (k + 1) 2^15), k >= 1, the last one cut
at y; each block's per-order sum is one partial, and a moment is the fsum
of the partials over y.  No temporary is longer than a block, and the
values depend neither on ell_max nor on a cut of [0, y) at a multiple of
2^15, such as a segment end of the phi stream.

Node counts.  If f is analytic with |f| <= M in the Bernstein ellipse
E_rho of [-1, 1], the n-point rule errs by at most
(64/15) M rho^(-2n) / (rho^2 - 1) (Trefethen, Approximation Theory and
Approximation Practice, Thm 19.3; on [0, 1] it is half that).  The only
singularity of Rt^ell is the pole at v = -m.  Take rho = 2m: the ellipse
reaches down to v = (1 - m)/2 - 1/(8m) > -m, so |m + v| >= m/2 there, and
with |v| <= V = (m + 1)/2 + 1/8,

    |Rt| <= 2 |Rt(m)| + 2 P V (2m + V) / m  ~  2 |Rt(m)| + 0.76 m.

With the trivial |Rt(m)| <= P m + 1/2 (0 <= S_m <= m(m+1)/2) the bound
M = (2 P m + 1 + 2 P V (2m + V) / m)^ell falls like m^(ell - 2n - 2).  A
moment is a mean of per-interval integrals, so its quadrature error is at
most the worst per-interval bound.  That should sit below half an ulp of a
moment of size 1e-8 (2^-53 * 1e-8 = 1.1e-24) for every ell <= 8.  Below
m = 128 every block takes n = 64 (bound below 2e-34).  From m = 128 a block
starting at m takes the fewest n <= 8 whose bound at ell = 8 meets 1.1e-24
there (``_node_count``); the bound falls in m, so it holds on the whole
block.  The bound meets it from m = 407 at n = 7, 3 779 at n = 6 and
328 214 at n = 5 (n = 4 would need m >= 2.2e11, past the 1e8 cap), so the
grid takes n = 8 on [128, 2^15) (1.9e-25 at m = 128), 6 from 32 768 and
5 from 360 448.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .foundations import phi_segments

__all__ = [
    "PhiAccumulator",
    "build_phi_accumulator",
    "r_values",
    "rtilde_blocks",
    "rtilde_moment_exact",
    "rtilde_moments_exact",
    "rtilde_samples",
]

_P = 3.0 / math.pi**2
_CHUNK = 1 << 15  # entries per block: 256 KB per float64 temporary


@dataclass(frozen=True)
class PhiAccumulator:
    """The prefix sums S_m = sum_{n <= m} phi(n), m = 0..y, from phi
    streamed by the segmented sieve (``phi`` None) or read from the
    caller's table."""

    y: int
    phi: np.ndarray | None

    def prefix_segments(self, stop: int, out: np.ndarray | None = None):
        """(lo, S_m for lo <= m < hi) over consecutive segments of [0, stop],
        stop <= y: written into out[lo:hi] (float64) when ``out`` is given,
        else into one int64 buffer that the next segment overwrites (the
        consumer may overwrite it too: the running total is taken first).

        phi comes from ``phi_segments(stop, out)``, or in 2^15-entry slices
        of the table, and is copied into its destination (nothing to copy
        where it was sieved into ``out``) and summed there with the running
        total carried (exact in float64 too, as S_y < 2^53 under the 1e8
        cap), so every segment but the last is a multiple of 2^15 entries.
        """
        if self.phi is None:
            segments = phi_segments(stop, out)
        else:
            phi = self.phi[: stop + 1]
            segments = ((lo, phi[lo : lo + _CHUNK]) for lo in range(0, stop + 1, _CHUNK))
        total, buffer = 0, None
        for lo, segment in segments:
            if out is None and buffer is None:
                buffer = np.empty(segment.size, dtype=np.int64)
            S = (buffer if out is None else out[lo:])[: segment.size]
            S[:] = segment
            del segment  # a sieved int32 segment goes before the consumer runs
            S[0] += total
            np.cumsum(S, out=S)
            total = S[-1]
            yield lo, S


def build_phi_accumulator(y: int, phi: np.ndarray | None = None) -> PhiAccumulator:
    """The accumulator of S_m, m <= y: streamed (each consumer sieves the
    segments it reads), or, given ``phi`` (a ``build_sieves`` table of
    length > y, read in place, never copied or mutated; a shorter one is a
    ValueError), summed from that table."""
    if y < 2:
        raise ValueError("y must be >= 2")
    if y > 100_000_000:
        raise ResourceLimitError(
            f"y = {y} exceeds the accumulator cap 1e8, below which the prefix "
            f"sums stay exact in float64 (~1.7e8); its samples alone would "
            f"take {8 * y} bytes, and the int32 phi table its statistics read "
            f"{4 * y} bytes"
        )
    if phi is not None and len(phi) <= y:
        raise ValueError(f"phi table of length {len(phi)} < y + 1 = {y + 1}")
    return PhiAccumulator(y, phi)


def r_values(x: float, acc: PhiAccumulator) -> tuple[float, float]:
    """(R(x), Rt(x)) for 0 < x <= y; the phi/2x correction applies only
    when x is an integer.  Only the segments up to the one holding
    floor(x) are sieved."""
    if not 0 < x <= acc.y:
        raise ValueError(f"x={x} outside (0, {acc.y}]")
    fx = math.floor(x)
    before = last = 0
    for _, S in acc.prefix_segments(fx):
        before, last = (S[-2] if S.size > 1 else last), S[-1]
    R = float(last) - _P * x * x
    Rt = R / x
    if x == fx:
        Rt -= int(last - before) / (2.0 * x)
    return R, Rt


def _rtilde_at_half(S: np.ndarray, lo: int) -> None:
    """S = S_m (float64), m = lo..lo + len(S) - 1, turned in place into
    Rt(m + 1/2) = S_m/u - P u, u = m + 1/2."""
    u = np.arange(lo, lo + S.size, dtype=float)
    u += 0.5
    S /= u
    u *= _P
    S -= u


def rtilde_samples(acc: PhiAccumulator) -> np.ndarray:
    """Rt at the half-integers m + 1/2, m = 0..y-1 (a measure-one sample
    of the continuous statistic, away from the integer corrections): S_m
    summed into one float64 array segment by segment and turned into
    S_m/u - P u there, a block of ``_CHUNK`` entries at a time."""
    y = acc.y
    out = np.empty(y)
    for lo, S in acc.prefix_segments(y - 1, out):
        for a in range(0, S.size, _CHUNK):
            _rtilde_at_half(S[a : a + _CHUNK], lo + a)
    return out


@dataclass(frozen=True)
class _RtildeBlocks:
    """The samples of ``rtilde_samples(acc)``, ``acc`` reading a phi table,
    as a block source of ``distribution``: regenerated on every read."""

    acc: PhiAccumulator

    @property
    def size(self) -> int:
        return self.acc.y

    def blocks(self, size: int):
        """The samples in order, in pieces of at most ``size`` (none across
        a segment of the prefix sums): each piece of the segment's int64
        S_m is cast to float64 in place, element for element over the same
        bytes, and turned into its samples there."""
        for lo, S in self.acc.prefix_segments(self.acc.y - 1):
            for a in range(0, S.size, size):
                x = S[a : a + size].view(np.float64)
                x[:] = S[a : a + size]
                _rtilde_at_half(x, lo + a)
                yield x


def rtilde_blocks(acc: PhiAccumulator) -> _RtildeBlocks:
    """The samples of ``rtilde_samples(acc)``, bit for bit, as a block
    source for ``distribution`` (its module note): no float64 array of
    them is held.  A streamed accumulator's phi is sieved once into an
    int32 table (4 bytes per sample, where the samples take 8) and read
    through the table branch of ``prefix_segments``; a given table is read
    in place."""
    phi = acc.phi
    if phi is None:
        phi = np.empty(acc.y + 1, dtype=np.int32)
        for _ in phi_segments(acc.y, phi):
            pass
    return _RtildeBlocks(PhiAccumulator(acc.y, phi))


# ---------------------------------------------------------------------------
# moment integrals

MAX_MOMENT_ORDER = 8


@functools.cache
def _gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return (nodes + 1.0) / 2.0, weights / 2.0


def _node_count(m: int) -> int:
    """Gauss-Legendre nodes for a block of intervals starting at m: 64
    below m = 128, else the fewest n <= 8 whose Bernstein-ellipse bound at
    ell = 8 is at most 1.1e-24 at m (module note)."""
    if m < 128:
        return 64
    rho, V = 2.0 * m, (m + 1) / 2 + 1 / 8
    M = (2 * _P * m + 1 + 2 * _P * V * (2 * m + V) / m) ** MAX_MOMENT_ORDER
    bounds = (64 / 15 * M * rho ** (-2 * n) / (rho**2 - 1) for n in range(1, 8))
    return next((n for n, b in enumerate(bounds, 1) if b <= 1.1e-24), 8)


def _interval_sum(S: np.ndarray, lo: int, ell_max: int, work, x) -> np.ndarray:
    """[sum over lo <= m < lo + len(S) of int_m^{m+1} Rt(u)^ell du,
    ell = 1..ell_max] from S = S_m there, by the ``_node_count(lo)``-node
    rule (module note), in the rows of the scratch arrays ``work`` (four
    float64 rows) and ``x`` (long double), len(S) long: a moment pass
    allocates no block-sized array per block."""
    m, d0, r, power = work
    np.add(np.arange(S.size, dtype=float), lo, out=m)
    # d0 = S - P m^2 exactly (80-bit intermediate; operands are exact there)
    np.square(m, out=x, dtype=np.longdouble)
    np.multiply(x, np.longdouble(_P), out=x)
    np.subtract(S, x, out=x)
    np.copyto(d0, x)
    sums = np.zeros(ell_max)
    for v, w in zip(*_gauss_legendre_01(_node_count(lo))):
        # Rt(m + v) = (d0 + v (d1 - P v)) / (m + v), d1 = -2 P m
        np.multiply(m, -2.0 * _P, out=r)
        r -= _P * v
        r *= v
        r += d0
        r /= np.add(m, v, out=power)
        np.copyto(power, r)  # 1.0 * r, the first power
        sums[0] += w * np.sum(power)
        for k in range(1, ell_max):
            power *= r
            sums[k] += w * np.sum(power)
    return sums


def _blocks(lo: int, hi: int):
    """The blocks [a, b) of the fixed grid 1, 128, k 2^15 (k >= 1) inside
    the segment [max(lo, 1), hi); one that the segment cuts is cut too."""
    start = max(lo, 1)
    grid = (128, *range((lo // _CHUNK + 1) * _CHUNK, hi, _CHUNK))
    return itertools.pairwise([start, *(g for g in grid if start < g < hi), hi])


def rtilde_moments_exact(y: int, ell_max: int, acc: PhiAccumulator) -> list[float]:
    """[(1/y) int_0^y Rt(u)^ell du for ell = 1..ell_max], all orders in
    one pass over the unit intervals.

    Each interval's integral is a Gauss-Legendre sum with error far under
    float64 resolution (the module note derives it).  The intervals are
    summed per block of the fixed grid [1, 128), [128, 2^15),
    [k 2^15, (k + 1) 2^15), and each moment is the fsum of its block sums,
    so the values depend neither on ``ell_max`` nor on a cut of [0, y) at a
    multiple of 2^15.
    """
    if not 1 <= ell_max <= MAX_MOMENT_ORDER:
        raise ValueError(f"moment order must be in [1, {MAX_MOMENT_ORDER}]")
    if y < 2 or y > acc.y:
        raise ValueError(f"y={y} outside [2, {acc.y}]")
    # the [0,1) interval: S_0 = 0, so Rt(u) = -P u
    parts = [[(-_P) ** ell / (ell + 1.0)] for ell in range(1, ell_max + 1)]
    work, x = np.empty((4, _CHUNK)), np.empty(_CHUNK, dtype=np.longdouble)
    for lo, S in acc.prefix_segments(y - 1):
        for a, b in _blocks(lo, lo + S.size):
            n = b - a
            sums = _interval_sum(S[a - lo : b - lo], a, ell_max, work[:, :n], x[:n])
            for part, s in zip(parts, sums.tolist()):
                part.append(s)
    return [math.fsum(part) / y for part in parts]


def rtilde_moment_exact(y: int, ell: int, acc: PhiAccumulator) -> float:
    """(1/y) int_0^y Rt(u)^ell du: the last entry of
    :func:`rtilde_moments_exact`."""
    return rtilde_moments_exact(y, ell, acc)[-1]
