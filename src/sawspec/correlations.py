"""Mean values of products of sawtooths at rationally related arguments.

The central object is the correlation integral over one common period,
an exactly rational quantity.  It vanishes for an odd number of factors,
has a gcd closed form for pairs, and admits a single-prime reduction, by
gcds alone with no factorization, that shrinks the period before the exact
piecewise-polynomial integration, which is memoised per reduced tuple for
the life of the process.
A lattice-sum estimator and the discrete mod-q correlation provide
independent numerical routes.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import product

import numpy as np

from .characters import require_below_cap
from .errors import ResourceLimitError

__all__ = [
    "reduce_correlation",
    "b_exact",
    "b_lattice_estimate",
    "discrete_correlation",
    "MAX_FACTORS",
    "MAX_PERIOD",
]

MAX_FACTORS = 8
MAX_PERIOD = 1_000_000  # reduced period b_exact integrates over, in unit intervals


def reduce_correlation(moduli) -> tuple[tuple[int, ...], Fraction]:
    """(sorted reduced moduli, extracted scalar): the single-prime reduction
    divides out of each n_i its part c_i coprime to the lcm of the others
    (what repeated gcds with that lcm leave of n_i), and the correlation
    integral is the scalar 1/prod c_i times the reduced tuple's."""
    mods = [int(n) for n in moduli]
    if not mods or any(n < 1 for n in mods):
        raise ValueError("moduli must be positive integers")
    reduced, extracted = [], 1
    for i, n in enumerate(mods):
        c = n
        g = math.gcd(c, math.lcm(*mods[:i], *mods[i + 1 :]))
        while g > 1:
            c //= g
            g = math.gcd(c, g)
        reduced.append(n // c)
        extracted *= c
    return tuple(sorted(reduced)), Fraction(1, extracted)


def _poly_int_bound(moduli, period: int) -> int:
    """A bound on every coefficient sum of ``_integrate_reduced`` over
    ``period`` unit intervals, and on every partial coefficient: on [m, m + 1)
    the integrand is prod_j (e_j + 2t)/(2 n_j) with |e_j| <= n_j, whose
    numerator coefficients sum in absolute value to at most prod_j (n_j + 2).
    The weights multiply the sums only as Python integers."""
    bound = 1
    for n in moduli:
        bound *= n + 2
    return bound * max(period, 1)


@functools.cache
def _integrate_reduced(moduli: tuple[int, ...], period: int) -> Fraction:
    """Exact mean of prod psi(x/n_j) over [0, period): on each unit interval
    the integrand is one degree-ell polynomial, integrated in integers.  The
    period runs in blocks, and each block's coefficient sums are added as
    Python integers, so no array spans the period.  Memoised per (moduli,
    period) for the process."""
    ell = len(moduli)
    weight_lcm = math.lcm(*range(1, ell + 2))
    weights = [weight_lcm // (i + 1) for i in range(ell + 1)]
    denom = weight_lcm * period
    for n in moduli:
        denom *= 2 * n

    # the longest block, of 2^8 to 2^12 unit intervals, whose coefficient sums
    # stay in int64; Python integers in object arrays where none does.  A
    # block of 2^12 holds under 0.7 MiB of arrays at ell = 8, and longer ones
    # ran no faster
    block = 1 << 12
    while block > 1 << 8 and _poly_int_bound(moduli, block) >= 2**62:
        block >>= 1
    block = min(block, period)
    dtype = np.int64 if _poly_int_bound(moduli, block) < 2**62 else object
    num = 0
    for lo in range(0, period, block):
        m = np.arange(lo, min(lo + block, period), dtype=dtype)
        coeffs = [np.ones(len(m), dtype=dtype)]
        for n in moduli:
            e = 2 * (m % n) - n
            nxt = [np.zeros(len(m), dtype=dtype) for _ in range(len(coeffs) + 1)]
            for i, c in enumerate(coeffs):
                nxt[i] += c * e
                nxt[i + 1] += 2 * c
            coeffs = nxt
        num += sum(int(np.sum(c)) * w for c, w in zip(coeffs, weights))
    return Fraction(num, denom)


def b_exact(moduli) -> Fraction:
    """Exact correlation integral of the sawtooths psi(x/n_j).

    Zero for an odd number of factors; gcd(n1,n2)^2/(12 n1 n2) for pairs;
    otherwise reduced and integrated exactly over one period of the reduced
    tuple (the full product of the moduli is a multiple of that period, so
    the means agree).  An even count above ``MAX_FACTORS``, or a reduced
    period above ``MAX_PERIOD``, raises ResourceLimitError before any array.
    """
    mods = tuple(int(n) for n in moduli)
    if not mods or any(n < 1 for n in mods):
        raise ValueError("moduli must be positive integers")
    ell = len(mods)
    if ell % 2 == 1:
        return Fraction(0)
    if ell == 2:
        g = math.gcd(mods[0], mods[1])
        return Fraction(g * g, 12 * mods[0] * mods[1])
    if ell > MAX_FACTORS:
        raise ResourceLimitError(f"integration degree ell = {ell} exceeds cap {MAX_FACTORS}")
    reduced, scalar = reduce_correlation(mods)
    period = math.lcm(*reduced)
    if period > MAX_PERIOD:
        raise ResourceLimitError(f"reduced period {period} exceeds cap {MAX_PERIOD}")
    return scalar * _integrate_reduced(reduced, period)


_LATTICE_BUDGET = 20_000_000  # lattice points b_lattice_estimate enumerates


def b_lattice_estimate(moduli, K: int) -> float:
    """Lattice-sum route: (i/2pi)^ell sum over nonzero |k_j| <= K with
    sum k_j/n_j = 0 of 1/(k_1 ... k_ell); defined for an even number of
    factors (the exact value is zero for odd counts).  The constraint is
    tested in int64 as n_last sum_j k_j D/n_j = 0 mod D, D the lcm of the
    free moduli, so a bound n_last K sum_j D/n_j of 2^63 or more raises
    ValueError before any array."""
    mods = [int(n) for n in moduli]
    if any(n < 1 for n in mods):
        raise ValueError("moduli must be positive integers")
    ell = len(mods)
    if ell % 2 == 1:
        raise ValueError("lattice estimator is defined for an even factor count")
    if ell < 2:
        raise ValueError("need at least two moduli")
    if K < 1:
        raise ValueError("K must be >= 1")
    points = (2 * K) ** (ell - 1)
    if points > _LATTICE_BUDGET:
        raise ResourceLimitError(
            f"lattice enumeration of (2K)^(ell-1) = {points} points exceeds "
            f"budget {_LATTICE_BUDGET}"
        )

    # solve for the coordinate with the largest modulus (tightest
    # integrality constraint), enumerate the rest
    order = sorted(range(ell), key=lambda i: mods[i])
    free = [mods[i] for i in order[:-1]]
    n_last = mods[order[-1]]
    D = math.lcm(*free)
    mult = [D // n for n in free]
    bound = n_last * K * sum(mult)
    if bound >= 2**63:
        raise ValueError(
            f"the lattice sum needs n_last K sum_j D/n_j = {bound} below 2^63 "
            "for its int64 arithmetic"
        )

    # the last free coordinate runs over the 2K nonzero k in blocks of 2^16
    total, block, last_mult = 0.0, 1 << 16, mult[-1]
    heads = product([k for k in range(-K, K + 1) if k] if ell > 2 else [], repeat=ell - 2)
    for head in heads:
        base = sum(k * m for k, m in zip(head, mult[:-1]))
        head_sum = 0.0
        for a in range(-K, K, block):
            ks = np.arange(a, min(a + block, K))
            ks += ks >= 0  # past k = 0
            num = ks * (n_last * last_mult)
            num += n_last * base
            k_last = -(num // D)
            ok = (num % D == 0) & (np.abs(k_last) <= K) & (k_last != 0)
            if np.any(ok):
                head_sum += float(
                    np.sum(1.0 / (ks[ok].astype(float) * k_last[ok].astype(float)))
                )
        total += head_sum / math.prod(map(float, head))
    sign = -1.0 if (ell // 2) % 2 else 1.0
    return sign * total / (2.0 * math.pi) ** ell


def discrete_correlation(q: int, moduli) -> float:
    """(1/q) sum_{k mod q} prod_j psi(k inv(n_j)/q), the mod-q analogue of
    the correlation integral; requires K = prod/min < q/ell."""
    mods = [int(n) for n in moduli]
    ell = len(mods)
    if any(n < 1 for n in mods):
        raise ValueError("moduli must be positive integers")
    if any(math.gcd(n, q) != 1 for n in mods):
        raise ValueError("moduli must be coprime to q")
    K = 1
    for n in mods:
        K *= n
    K //= min(mods)
    if K >= q / ell:
        raise ValueError(f"requires prod/min = {K} < q/ell = {q / ell:g}")
    # tracemalloc peak per residue: k, the accumulator and one factor's terms
    require_below_cap(q, "discrete correlation", 33)
    k = np.arange(1, q, dtype=np.int64)
    acc = np.ones(q - 1)
    for n in mods:
        acc *= ((k * pow(n, -1, q)) % q) / q - 0.5
    return float(np.sum(acc)) / q
