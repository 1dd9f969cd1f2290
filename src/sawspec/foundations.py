"""The sawtooth psi_array, factorization, the segmented prime sieve (a
stream of prime blocks, or all of them in one array), the multiplicative
tables phi, J_2, mu, a(n), b(n) (one sieve fills each, alone; b(n) also
exactly, as the int64 denominators d(n) of b = 1/d), and C = 2 Pi_2.

Everything downstream (Dedekind spectra, bias constants, correlation
integrals, totient error moments) consumes these primitives.  Exact
values are integers here (b(n) as its denominator), which the exact
routes downstream carry in ``fractions.Fraction``; float paths exist for
the bulk/vectorized consumers.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator

import numpy as np

from .errors import ResourceLimitError

__all__ = [
    "psi_array",
    "factorize",
    "prime_blocks",
    "prime_array",
    "require_sieve_limit",
    "jordan_table",
    "mobius_table",
    "build_sieves",
    "coeff_a_floats",
    "coeff_b_floats",
    "coeff_b_denominators",
    "constant_C",
]


# ---------------------------------------------------------------------------
# the sawtooth


def psi_array(x) -> np.ndarray:
    """Centered sawtooth, elementwise: {x} - 1/2 off integers, 0 at integers.

    The value is computed from |x| with the sign restored afterwards, so
    the oddness psi(-x) == -psi(x) is exact in floating point, not just up
    to rounding.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    return np.where(x == np.floor(x), 0.0, np.sign(x) * ((ax - np.floor(ax)) - 0.5))


# ---------------------------------------------------------------------------
# factorization


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] of n by trial division, p
    increasing; empty for n <= 1."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


# ---------------------------------------------------------------------------
# the prime sieve and the multiplicative sieve

_SEGMENT = 1 << 22  # the most flags the sieve holds at once


def prime_blocks(limit: int) -> Iterator[np.ndarray]:
    """All primes <= limit as increasing int64 blocks: the primes <= sqrt(limit),
    by ``prime_array``, then those of each 2^22-entry segment of
    (sqrt(limit), limit], whose composites they strike out."""
    if limit < 4:
        yield np.array([2, 3][: max(limit - 1, 0)], dtype=np.int64)
        return
    root = math.isqrt(limit)
    small = prime_array(root)
    yield small
    for lo in range(root + 1, limit + 1, _SEGMENT):
        flags = np.ones(min(_SEGMENT, limit + 1 - lo), dtype=bool)
        for p in small.tolist():
            flags[max(p * p, -(-lo // p) * p) - lo :: p] = False
        yield np.nonzero(flags)[0].astype(np.int64) + lo


def prime_array(limit: int) -> np.ndarray:
    """All primes <= limit: the blocks of ``prime_blocks`` in one array."""
    return np.concatenate(list(prime_blocks(limit)))


# the largest sieve limit: 2.6 GB at the peak of an int64 table
MAX_SIEVE_LIMIT = 200_000_000


def require_sieve_limit(limit: int, per_entry: float) -> None:
    """Raise ResourceLimitError for limit > MAX_SIEVE_LIMIT, stating the peak
    bytes at ``per_entry`` (a multiple of 1/2) bytes per entry of [0, limit]."""
    if limit > MAX_SIEVE_LIMIT:
        peak = int(2 * per_entry) * (limit + 1) // 2
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds configured cap {MAX_SIEVE_LIMIT} (it "
            f"would peak below {peak} bytes)"
        )


def _sieve(limit: int, dtype, prime_power, large_prime) -> np.ndarray:
    """The multiplicative f on [0, limit] as an array of ``dtype``, f(0) = 0.

    From table = 1, for p <= max(2, sqrt(limit)) then p^e <= limit, both
    increasing: table[p^e::p^e] = prime_power(table[p^e::p^e], p, e).  Every
    other n is s P with one prime P > sqrt(limit); s < sqrt(limit), so
    table[s] is final, and table[s P] = large_prime(table[s], P) for all such
    P at once.  The peak is the table, its product at p = 2 (half a table)
    and the primes <= limit, which with the last products stay under a byte
    per entry for limit >= 1e6.
    """
    require_sieve_limit(limit, (3 * np.dtype(dtype).itemsize + 2) / 2)
    primes = prime_array(limit)
    table = np.ones(limit + 1, dtype=dtype)
    table[:1] = 0
    root = max(math.isqrt(limit), 2)
    cut = int(np.searchsorted(primes, root, side="right"))
    for p in primes[:cut].tolist():
        pk, e = p, 1
        while pk <= limit:
            table[pk::pk] = prime_power(table[pk::pk], p, e)
            pk, e = pk * p, e + 1
    large = primes[cut:]
    for s in range(1, limit // (root + 1) + 1):
        if table[s]:
            P = large[: np.searchsorted(large, limit // s, side="right")]
            table[s * P] = large_prime(table[s], P)
    return table


def jordan_table(limit: int, k: int) -> np.ndarray:
    """Jordan's totient J_k(n) = n^k prod_{p | n} (1 - p^-k), n = 0..limit,
    as int64 (exact while limit^k < 2^63); J_1 is Euler's phi."""
    return _sieve(
        limit,
        np.int64,
        lambda v, p, e: v * (p**k - 1 if e == 1 else p**k),
        lambda x, P: x * (P**k - 1),
    )


def mobius_table(limit: int) -> np.ndarray:
    """The Mobius function mu(n), n = 0..limit, as int8."""
    return _sieve(limit, np.int8, lambda v, p, e: -v if e == 1 else 0, lambda x, P: -x)


def build_sieves(limit: int) -> np.ndarray:
    """Euler's phi (int64) on [0, limit], ``jordan_table(limit, 1)``: the
    table ``build_phi_accumulator`` sums."""
    return jordan_table(limit, 1)


# ---------------------------------------------------------------------------
# the multiplicative coefficients a(n) and b(n): a(2) = -1/2, a(p) = 2/(p(p-2))
# and a(p^2) = -1/(p(p-2)) on odd p, zero on higher prime powers (and on 2^v,
# v >= 2); b = a * (1/id) is zero unless n is odd and squarefree, with
# b(p) = 1/(p-2) on odd primes


def coeff_a_floats(limit: int) -> np.ndarray:
    """a(n) for n = 0..limit as float64 (a[0] = 0): per odd p | n, p
    increasing, one rounded 2/(p(p-2)) and one rounded product (-1/2 and 0
    are exact), so |error| <= gamma_{2w} |a(n)|, w = #{odd p | n},
    gamma_m = m u/(1 - m u), u = 2^-53."""

    def prime_power(v, p, e):  # a(p^e)/a(p^(e-1)), or 0 once a(p^e) is 0
        if e == 1:
            return v * (-0.5 if p == 2 else 2.0 / (p * (p - 2)))
        return v * -0.5 if e == 2 and p > 2 else 0.0

    return _sieve(
        limit, np.float64, prime_power, lambda x, P: x * (2.0 / (P * (P - 2)))
    )


def coeff_b_floats(limit: int) -> np.ndarray:
    """b(n) for n = 0..limit as float64 (zero off odd squarefree support):
    1 divided by p - 2 for each p | n, p increasing, one rounding each, so
    |error| <= gamma_w |b(n)|, w = #{p | n}, gamma_m = m u/(1 - m u)."""
    return _sieve(
        limit,
        np.float64,
        lambda v, p, e: v / (p - 2) if e == 1 and p > 2 else 0.0,
        lambda x, P: x / (P - 2),
    )


def coeff_b_denominators(limit: int) -> np.ndarray:
    """d(n) = prod_{p | n} (p - 2) on the odd squarefree support of b, so
    b(n) = 1/d(n) exactly, and 0 off it (and at n = 0), for n = 0..limit:
    int64 from one sieve, exact since d(n) <= n."""
    return _sieve(
        limit,
        np.int64,
        lambda v, p, e: v * (p - 2) if e == 1 and p > 2 else 0,
        lambda x, P: x * (P - 2),
    )


# ---------------------------------------------------------------------------
# the constant C = 2 * prod_{p >= 3} (1 - 1/(p-1)^2), twice the twin-prime constant

# 2 * Pi_2 = 1.32032363169373914785562422002911155686..., known to any
# precision by Cohen's prime-zeta acceleration (Cohen, "High precision
# computation of Hardy-Littlewood constants", 1998); rounded to float64.
_TWIN_PRIME_DOUBLED = 1.3203236316937392


def constant_C(excluded_prime: int | None = None) -> tuple[float, float]:
    """The constant 2 prod_{p>=3, p != excluded} (1 - 1/(p-1)^2).

    This is the twin-prime constant 2 Pi_2, with the factor of the odd
    prime ``excluded_prime`` (if given) divided back out.  Returns
    ``(value, bound)`` where ``bound`` certifies |value - exact| <= bound:
    the float64 rounding of the literal (u = 2^-53 relative) plus that of
    forming and applying the divisor (below 3u), so 4u in all.
    """
    value = _TWIN_PRIME_DOUBLED
    if excluded_prime is not None and excluded_prime >= 3:
        value /= 1.0 - 1.0 / (excluded_prime - 1.0) ** 2
    bound = 2.0 * sys.float_info.epsilon * value
    return value, bound
