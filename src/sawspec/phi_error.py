"""The error term in the totient summatory asymptotic and its moments
(its truncated Mobius-sawtooth model is ``moments.sawtooth_model("R", ...)``).

R(x) is the deviation of sum_{n<=x} phi(n) from 3x^2/pi^2 and
Rt(u) = R(u)/u - phi(u)/(2u) its normalized form (the phi correction only
at integers).  The prefix sums of phi are one int64 table, sieved by
``jordan_table(y, 1)`` (or copied from a ``build_sieves`` table passed in)
and summed in place.  Between
consecutive integers Rt is a rational function, so the moment integrals
over [0, y] split into one smooth integral per unit interval.

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
2^15.

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
from .foundations import jordan_table

__all__ = [
    "PhiAccumulator",
    "build_phi_accumulator",
    "r_values",
    "rtilde_moment_exact",
    "rtilde_moments_exact",
    "rtilde_samples",
]

_P = 3.0 / math.pi**2
_CHUNK = 1 << 15  # entries per block: 256 KB per float64 temporary


@dataclass(frozen=True)
class PhiAccumulator:
    """Exact prefix sums S_m = sum_{n <= m} phi(n), m = 0..y (int64)."""

    y: int
    prefix: np.ndarray

    def phi(self, m: int) -> int:
        if not 1 <= m <= self.y:
            raise ValueError(f"m={m} outside [1, {self.y}]")
        return int(self.prefix[m] - self.prefix[m - 1])


def build_phi_accumulator(y: int, phi: np.ndarray | None = None) -> PhiAccumulator:
    """S_m of ``phi`` (a ``build_sieves`` table of length > y, copied, never
    mutated; a shorter one is a ValueError), else of ``jordan_table(y, 1)``,
    summed in place in the table the sieve returns, so the peak is the
    sieve's own."""
    if y < 2:
        raise ValueError("y must be >= 2")
    if y > 100_000_000:
        raise ResourceLimitError(
            f"y = {y} exceeds the accumulator cap 1e8, below which the prefix "
            f"sums stay exact in a float64 view (~1.7e8); the phi sieve "
            f"would peak at {13 * (y + 1)} bytes"
        )
    if phi is None:
        prefix = jordan_table(y, 1)
    elif len(phi) <= y:
        raise ValueError(f"phi table of length {len(phi)} < y + 1 = {y + 1}")
    else:
        prefix = phi[: y + 1].astype(np.int64)
    np.cumsum(prefix, out=prefix)
    return PhiAccumulator(y, prefix)


def r_values(x: float, acc: PhiAccumulator) -> tuple[float, float]:
    """(R(x), Rt(x)) for 0 < x <= y; the phi/2x correction applies only
    when x is an integer."""
    if not 0 < x <= acc.y:
        raise ValueError(f"x={x} outside (0, {acc.y}]")
    fx = math.floor(x)
    R = float(acc.prefix[fx]) - _P * x * x
    Rt = R / x
    if x == fx:
        Rt -= acc.phi(fx) / (2.0 * x)
    return R, Rt


def rtilde_samples(acc: PhiAccumulator) -> np.ndarray:
    """Rt at the half-integers m + 1/2, m = 0..y-1 (a measure-one sample
    of the continuous statistic, away from the integer corrections),
    written into one array a block of ``_CHUNK`` entries at a time."""
    y = acc.y
    out = np.empty(y)
    for lo in range(0, y, _CHUNK):
        hi = min(lo + _CHUNK, y)
        u = np.arange(lo, hi, dtype=float) + 0.5
        out[lo:hi] = acc.prefix[lo:hi].astype(float) / u - _P * u
    return out


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


def _interval_sum(acc: PhiAccumulator, lo: int, hi: int, ell_max: int) -> np.ndarray:
    """[sum over lo <= m < hi of int_m^{m+1} Rt(u)^ell du, ell = 1..ell_max]
    by the ``_node_count(lo)``-node rule (module note)."""
    m_int = np.arange(lo, hi, dtype=np.int64)
    m = m_int.astype(float)
    # d0 = S - P m^2 exactly (80-bit intermediate; operands are exact there)
    ld = np.longdouble
    S = acc.prefix[lo:hi]
    d0 = np.asarray(S.astype(ld) - ld(_P) * m_int.astype(ld) ** 2, dtype=float)
    d1 = -2.0 * _P * m
    sums = np.zeros(ell_max)
    for v, w in zip(*_gauss_legendre_01(_node_count(lo))):
        r = (d0 + v * (d1 - _P * v)) / (m + v)  # Rt(m + v)
        power = np.ones_like(r)
        for k in range(ell_max):
            power *= r
            sums[k] += w * np.sum(power)
    return sums


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
    edges = [e for e in (1, 128, *range(_CHUNK, y, _CHUNK)) if e < y] + [y]
    for lo, hi in itertools.pairwise(edges):
        for part, s in zip(parts, _interval_sum(acc, lo, hi, ell_max).tolist()):
            part.append(s)
    return [math.fsum(part) / y for part in parts]


def rtilde_moment_exact(y: int, ell: int, acc: PhiAccumulator) -> float:
    """(1/y) int_0^y Rt(u)^ell du: the last entry of
    :func:`rtilde_moments_exact`."""
    return rtilde_moments_exact(y, ell, acc)[-1]
