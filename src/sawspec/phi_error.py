"""The error term in the totient summatory asymptotic and its moments
(its truncated Mobius-sawtooth model is ``moments.sawtooth_model("R", ...)``).

R(x) is the deviation of sum_{n<=x} phi(n) from 3x^2/pi^2 and
Rt(u) = R(u)/u - phi(u)/(2u) its normalized form (the phi correction only
at integers).  The prefix sums of phi come from one int64 table, sieved by
``jordan_table(y, 1)`` or passed in as ``build_sieves``' table.  Between
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

Node counts.  If f is analytic with |f| <= M in the Bernstein ellipse
E_rho of [-1, 1], the n-point rule errs by at most
(64/15) M rho^(-2n) / (rho^2 - 1) (Trefethen, Approximation Theory and
Approximation Practice, Thm 19.3; on [0, 1] it is half that).  The only
singularity of Rt^ell is the pole at v = -m.  Take rho = 2m: the ellipse
reaches down to v = (1 - m)/2 - 1/(8m) > -m, so |m + v| >= m/2 there, and
with |v| <= V = (m + 1)/2 + 1/8,

    |Rt| <= 2 |Rt(m)| + 2 P V (2m + V) / m  ~  2 |Rt(m)| + 0.76 m.

With the trivial |Rt(m)| <= P m + 1/2 (0 <= S_m <= m(m+1)/2) the bound
falls like m^(ell - 2n - 2).  A moment is a mean of per-interval
integrals, so its quadrature error is at most the worst per-interval bound.
That should sit below half an ulp of a moment of size 1e-8
(2^-53 * 1e-8 = 1.1e-24) for every ell <= 8:

- m < 128: n = 64, bound below 2e-34;
- m >= 128: n = 8, bound 1.9e-25 at m = 128, ell = 8 (n = 7 gives
  1.2e-20).  With the measured |Rt(128)| = 0.327 it is 1.8e-27.
"""
from __future__ import annotations

import functools
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
    """S_m of ``phi`` (a ``build_sieves`` table of length > y; a shorter
    one is a ValueError), else of ``jordan_table(y, 1)``."""
    if y < 2:
        raise ValueError("y must be >= 2")
    if y > 100_000_000:
        # phi and the prefix, int64 each, outweigh the sieve's own peak
        raise ResourceLimitError(
            f"y = {y} exceeds the accumulator cap 1e8, below which the prefix "
            f"sums stay exact in a float64 view (~1.7e8); the phi table and "
            f"prefix would peak at {16 * (y + 1)} bytes"
        )
    if phi is None:
        phi = jordan_table(y, 1)
    elif len(phi) <= y:
        raise ValueError(f"phi table of length {len(phi)} < y + 1 = {y + 1}")
    prefix = np.zeros(y + 1, dtype=np.int64)
    np.cumsum(phi[: y + 1], out=prefix)
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
    of the continuous statistic, away from the integer corrections)."""
    y = acc.y
    u = np.arange(y, dtype=float) + 0.5
    S = acc.prefix[:y].astype(float)
    return S / u - _P * u


# ---------------------------------------------------------------------------
# moment integrals

MAX_MOMENT_ORDER = 8
_CHUNK = 1 << 19  # intervals per array step: ~4 MB per float64 temporary


@functools.cache
def _gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return (nodes + 1.0) / 2.0, weights / 2.0


def _interval_sum(acc: PhiAccumulator, lo: int, hi: int, ell_max: int) -> np.ndarray:
    """[sum over lo <= m < hi of int_m^{m+1} Rt(u)^ell du, ell = 1..ell_max]
    by the 64-node rule if lo < 128, else the 8-node rule (module note)."""
    m_int = np.arange(lo, hi, dtype=np.int64)
    m = m_int.astype(float)
    # d0 = S - P m^2 exactly (80-bit intermediate; operands are exact there)
    ld = np.longdouble
    S = acc.prefix[lo:hi]
    d0 = np.asarray(S.astype(ld) - ld(_P) * m_int.astype(ld) ** 2, dtype=float)
    d1 = -2.0 * _P * m
    sums = np.zeros(ell_max)
    for v, w in zip(*_gauss_legendre_01(64 if lo < 128 else 8)):
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
    float64 resolution (the module note derives it); the sums are
    accumulated in fixed chunk order, so entry ell - 1 does not depend on
    ``ell_max``.
    """
    if not 1 <= ell_max <= MAX_MOMENT_ORDER:
        raise ValueError(f"moment order must be in [1, {MAX_MOMENT_ORDER}]")
    if y < 2 or y > acc.y:
        raise ValueError(f"y={y} outside [2, {acc.y}]")
    # the [0,1) interval: S_0 = 0, so Rt(u) = -P u
    parts = [[(-_P) ** ell / (ell + 1.0)] for ell in range(1, ell_max + 1)]
    lo = 1
    while lo < y:
        hi = min(lo + _CHUNK, y)
        if lo < 128 < hi:  # keep the rule switch at a chunk boundary
            hi = 128
        for part, s in zip(parts, _interval_sum(acc, lo, hi, ell_max).tolist()):
            part.append(s)
        lo = hi
    return [math.fsum(part) / y for part in parts]


def rtilde_moment_exact(y: int, ell: int, acc: PhiAccumulator) -> float:
    """(1/y) int_0^y Rt(u)^ell du: the last entry of
    :func:`rtilde_moments_exact`."""
    return rtilde_moments_exact(y, ell, acc)[-1]
