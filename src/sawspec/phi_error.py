"""The error term in the totient summatory asymptotic and its moments.

R(x) is the deviation of sum_{n<=x} phi(n) from 3x^2/pi^2 and
Rt(u) = R(u)/u - phi(u)/(2u) its normalized form (the phi correction only
at integers).  Between consecutive integers Rt(u) = S_m/u - (3/pi^2) u, a
rational function, so moment integrals over [0, y] reduce to per-interval
closed forms with no quadrature error.

Numerical note: expanding those closed forms in powers of u cancels
catastrophically for large m (terms of size (0.3 m)^ell against O(1)
integrals), so each interval is integrated through the algebraically
identical expansion around its left endpoint: the numerator polynomial in
v = u - m has coefficients of the size of R(m), and the kernel integrals
J_i = int_0^1 v^i (m+v)^-ell dv are evaluated by a geometric series in 1/m
(m >= 128) or fixed Gauss-Legendre nodes (m < 128), both exact to float64
resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .correlations import b_exact
from .errors import ResourceLimitError
from .foundations import SieveTables, ensure_sieves, psi_array

__all__ = [
    "PhiAccumulator",
    "build_phi_accumulator",
    "r_values",
    "rtilde_moment_exact",
    "rtilde_samples",
    "rtilde_truncated_model",
    "pair_correlation_stat",
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


def build_phi_accumulator(y: int, sieves: SieveTables | None = None) -> PhiAccumulator:
    if y < 2:
        raise ValueError("y must be >= 2")
    if y > 100_000_000:
        # prefix sums stay exact in float64 view up to ~1.7e8
        raise ValueError("accumulator capped at 1e8")
    sieves = ensure_sieves(y, sieves)
    prefix = np.zeros(y + 1, dtype=np.int64)
    np.cumsum(sieves.euler_phi[: y + 1], out=prefix)
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


def rtilde_samples(acc: PhiAccumulator, y: int | None = None) -> np.ndarray:
    """Rt at the half-integers m + 1/2, m = 0..y-1 (a measure-one sample
    of the continuous statistic, away from the integer corrections)."""
    y = acc.y if y is None else y
    if y > acc.y:
        raise ValueError("y exceeds accumulator range")
    u = np.arange(y, dtype=float) + 0.5
    S = acc.prefix[:y].astype(float)
    return S / u - _P * u


# ---------------------------------------------------------------------------
# exact moment integrals


def _kernel_integrals_gl(m: np.ndarray, ell: int, count: int) -> np.ndarray:
    """J_i(m) = int_0^1 v^i/(m+v)^ell dv by 64-node Gauss-Legendre.

    For m >= 1 the integrand is analytic with its pole at distance >= 1
    from the interval; the quadrature error is below 1e-60, far under
    float64 resolution, and all terms are positive (condition number 1).
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    v = (nodes + 1.0) / 2.0
    w = weights / 2.0
    kern = w / (m[:, None] + v[None, :]) ** ell  # (M, 64)
    vpow = np.vander(v, count, increasing=True).T  # (count, 64)
    return vpow @ kern.T  # (count, M)


def _kernel_integrals_series(
    m: np.ndarray, ell: int, count: int, terms: int
) -> np.ndarray:
    """Same J_i by the binomial series (1+v/m)^-ell; truncation below
    1e-22 relative for m >= 128 with the default term count."""
    minv = 1.0 / m
    mp = minv**ell
    J = np.zeros((count, len(m)))
    coef = 1.0
    sign = 1.0
    for r in range(terms + 1):
        scaled = sign * coef * mp
        for i in range(count):
            J[i] += scaled / (i + r + 1.0)
        mp = mp * minv
        sign = -sign
        coef = coef * (ell + r) / (r + 1.0)
    return J


def _numerator_power(d0: np.ndarray, d1: np.ndarray, d2: float, ell: int):
    """Coefficient arrays of (d0 + d1 v + d2 v^2)^ell in v."""
    base = [d0, d1, np.full_like(d0, d2)]
    coeffs = list(base)
    for _ in range(ell - 1):
        out = [np.zeros_like(d0) for _ in range(len(coeffs) + 2)]
        for i, c in enumerate(coeffs):
            out[i] += c * base[0]
            out[i + 1] += c * base[1]
            out[i + 2] += c * d2
        coeffs = out
    return coeffs


def _interval_sum(acc: PhiAccumulator, lo: int, hi: int, ell: int, terms: int) -> float:
    m_int = np.arange(lo, hi, dtype=np.int64)
    S = acc.prefix[lo:hi]
    m = m_int.astype(float)
    # d0 = S - P m^2 exactly (80-bit intermediate; operands are exact there)
    ld = np.longdouble
    d0 = np.asarray(S.astype(ld) - ld(_P) * m_int.astype(ld) ** 2, dtype=float)
    d1 = -2.0 * _P * m
    coeffs = _numerator_power(d0, d1, -_P, ell)
    if lo >= 128:
        J = _kernel_integrals_series(m, ell, 2 * ell + 1, terms)
    else:
        J = _kernel_integrals_gl(m, ell, 2 * ell + 1)
    total = np.zeros_like(m)
    for c, Ji in zip(coeffs, J):
        total += c * Ji
    return float(np.sum(total))


def rtilde_moment_exact(
    y: int,
    ell: int,
    acc: PhiAccumulator,
    chunk: int = 1 << 19,
    series_terms: int = 26,
) -> float:
    """(1/y) int_0^y Rt(u)^ell du by per-interval closed forms.

    On [m, m+1) the integrand is (S_m/u - (3/pi^2) u)^ell; the integral is
    evaluated exactly per interval (see the module note on conditioning)
    and accumulated in fixed chunk order.
    """
    if not 1 <= ell <= 8:
        raise ValueError("moment order must be in [1, 8]")
    if y < 2 or y > acc.y:
        raise ValueError(f"y={y} outside [2, {acc.y}]")
    parts = [(-_P) ** ell / (ell + 1.0)]  # the [0,1) interval: S_0 = 0
    lo = 1
    while lo < y:
        hi = min(lo + chunk, y)
        # keep the GL/series switch at a chunk boundary
        if lo < 128 < hi:
            hi = 128
        parts.append(_interval_sum(acc, lo, hi, ell, series_terms))
        lo = hi
    return math.fsum(parts) / y


# ---------------------------------------------------------------------------
# truncated sawtooth model and the short-interval pair statistic


def rtilde_truncated_model(u, N: int, sieves: SieveTables | None = None):
    """-sum_{n <= N} (mu(n)/n) psi(u/n): the truncated sawtooth model."""
    if N < 1:
        raise ValueError("N must be >= 1")
    mu = ensure_sieves(N, sieves).mobius
    us = np.asarray(u, dtype=float)
    total = np.zeros_like(us)
    for n in range(1, N + 1):
        mn = int(mu[n])
        if mn:
            total -= (mn / n) * psi_array(us / n)
    return float(total) if np.ndim(u) == 0 else total


def _pair_integral_exact(n1: int, n2: int, y: int):
    """Exact int_0^y psi(x/n1) psi(x/n2) dx as a Fraction: full periods
    through the pair correlation plus an integer partial-period sum."""
    T = math.lcm(n1, n2)
    full, rem = divmod(y, T)
    total = full * T * b_exact((n1, n2))
    if rem:
        m = np.arange(rem, dtype=np.int64)
        e1 = 2 * (m % n1) - n1
        e2 = 2 * (m % n2) - n2
        num = int(np.sum(4 + 3 * e1 + 3 * e2 + 3 * e1 * e2))
        total += Fraction(num, 12 * n1 * n2)
    return total


def pair_correlation_stat(N: int, y: int, pair_budget: int = 4096) -> float:
    """sum over N < n1, n2 <= 2N of |(1/y) int_0^y psi(x/n1) psi(x/n2) dx|,
    every inner integral exact."""
    if N < 1 or y < 2 * N:
        raise ValueError("need N >= 1 and y >= 2N")
    if N * N > pair_budget:
        raise ResourceLimitError(f"{N * N} pair integrals exceed budget")
    total = 0.0
    for n1 in range(N + 1, 2 * N + 1):
        for n2 in range(N + 1, 2 * N + 1):
            total += abs(float(_pair_integral_exact(n1, n2, y))) / y
    return total
