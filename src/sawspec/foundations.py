"""The sawtooth psi_array, factorization, the segmented prime sieve (a
stream of prime blocks, or all of them in one array), the segmented
multiplicative sieve (phi segment by segment, or the tables phi, J_2, mu,
a(n), b(n), each filled alone; b(n) also exactly, as the int64
denominators d(n) of b = 1/d), and C = 2 Pi_2.

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
    "phi_segments",
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


# the largest sieve limit: 1.6 GB at the peak of an int64 table
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


_SIEVE_UNIT = 1 << 15  # a sieve segment is a multiple of this many entries
_TABLE_UNITS = 4  # a table's segments are at least this many units long


def _sieve(
    limit: int, dtype, prime_power, large_prime, out=None, units: int = 1
) -> Iterator[tuple[int, np.ndarray]]:
    """The multiplicative f on [0, limit], f(0) = 0, as (lo, f on [lo, hi))
    for consecutive segments of ``dtype``, each _SIEVE_UNIT
    max(units, ceil(sqrt(limit) / 2^9)) entries long (the last one cut at
    limit + 1): about 64 sqrt(limit), so that a segment pays for its pass
    over the prime powers, and a multiple of the totient pipeline's 2^15
    blocks.  Given ``out`` (of ``dtype``, on [0, limit]), each segment is
    its slice.

    Per segment, from f = 1, for p <= max(2, sqrt(limit)) then p^e <= limit,
    both increasing, ``prime_power(v, p, e)`` updates v, the f of the
    multiples n of p^e, in place, and their smooth part (the product of
    those p^e, int32) is multiplied by p.  What is left, n over its smooth
    part, is 1 or the one prime P > sqrt(limit) of n, and there
    f = large_prime(f, P), with P as int64, 2^12 entries at a time.  So
    every entry gets the same operations in the same order at any segment
    length.  Beside f, a segment holds its smooth parts (4 bytes per entry);
    the large-prime step and the list of prime powers add 0.2 MB at limit
    1e6 and 0.4 MB at 1e8.  Only the primes up to sqrt(limit) are listed.
    The int32 smooth parts need limit < 2^31, which the callers check.
    """
    root = max(math.isqrt(limit), 2)
    powers = []
    for p in prime_array(root).tolist():
        pk, e = p, 1
        while pk <= limit:
            powers.append((pk, p, e))
            pk, e = pk * p, e + 1
    moduli = np.array([pk for pk, _, _ in powers], dtype=np.int64)

    def segment(lo: int, hi: int) -> np.ndarray:
        f = np.empty(hi - lo, dtype=dtype) if out is None else out[lo:hi]
        f[:] = 1
        if lo == 0:
            f[0] = 0
        smooth = np.ones(hi - lo, dtype=np.int32)
        starts = np.maximum(moduli, -(-lo // moduli) * moduli) - lo
        for (pk, p, e), start in zip(powers, starts.tolist()):
            if start < hi - lo:
                prime_power(f[start::pk], p, e)
                smooth[start::pk] *= p
        for a in range(0, hi - lo, 1 << 12):
            s, g = smooth[a : a + (1 << 12)], f[a : a + (1 << 12)]
            rest = np.arange(lo + a, lo + a + s.size, dtype=np.int32) // s
            big = np.flatnonzero(rest > 1)
            g[big] = large_prime(g[big], rest[big].astype(np.int64))
        return f

    size = _SIEVE_UNIT * max(units, -(-root // 512))
    for lo in range(0, limit + 1, size):
        yield lo, segment(lo, min(lo + size, limit + 1))


def _table(limit: int, dtype, prime_power, large_prime) -> np.ndarray:
    """The multiplicative f on [0, limit] as one array of ``dtype``, each
    segment of ``_sieve`` sieved in its slice, in segments of at least
    _TABLE_UNITS units: one segment below 2^17 entries.  The cap is
    checked first, at the peak: the table and one segment's work, below a
    byte per entry from limit = 1e6 on (about 0.05 at the cap)."""
    require_sieve_limit(limit, np.dtype(dtype).itemsize + 1)
    table = np.empty(limit + 1, dtype=dtype)
    for _ in _sieve(limit, dtype, prime_power, large_prime, table, _TABLE_UNITS):
        pass
    return table


def _jordan_steps(k: int):
    """The ``_sieve`` steps of J_k: times J_k(p^e) / J_k(p^(e-1)), and J_k(P)."""

    def prime_power(v, p, e):
        v *= p**k - 1 if e == 1 else p**k

    return prime_power, lambda x, P: x * (P**k - 1)


def phi_segments(limit: int, out: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Euler's phi on [0, limit] as (lo, phi on [lo, hi)) per segment of
    ``_sieve``: a new int32 array each, or, given ``out`` (float64 or
    int32, of length > limit; exact, as phi(n) < 2^31), its slice.  A
    limit of 2^31 or more, where int32 wraps, is refused."""
    if limit >= 1 << 31:
        raise ResourceLimitError(f"phi stream limit {limit} is not below 2^31")
    return _sieve(limit, np.int32 if out is None else out.dtype, *_jordan_steps(1), out)


def jordan_table(limit: int, k: int) -> np.ndarray:
    """J_k(n), n = 0..limit, as one int64 array (exact while
    limit^k < 2^63); J_1 is Euler's phi."""
    return _table(limit, np.int64, *_jordan_steps(k))


def mobius_table(limit: int) -> np.ndarray:
    """The Mobius function mu(n), n = 0..limit, as int8."""

    def prime_power(v, p, e):
        v *= -1 if e == 1 else 0

    return _table(limit, np.int8, prime_power, lambda x, P: -x)


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

    def prime_power(v, p, e):  # times a(p^e)/a(p^(e-1)), or 0 once a(p^e) is 0
        if e == 1:
            v *= -0.5 if p == 2 else 2.0 / (p * (p - 2))
        elif e == 2 and p > 2:
            v *= -0.5
        else:
            v[:] = 0.0

    return _table(limit, np.float64, prime_power, lambda x, P: x * (2.0 / (P * (P - 2))))


def coeff_b_floats(limit: int) -> np.ndarray:
    """b(n) for n = 0..limit as float64 (zero off odd squarefree support):
    1 divided by p - 2 for each p | n, p increasing, one rounding each, so
    |error| <= gamma_w |b(n)|, w = #{p | n}, gamma_m = m u/(1 - m u)."""

    def prime_power(v, p, e):
        if e == 1 and p > 2:
            v /= p - 2
        else:
            v[:] = 0.0

    return _table(limit, np.float64, prime_power, lambda x, P: x / (P - 2))


def coeff_b_denominators(limit: int) -> np.ndarray:
    """d(n) = prod_{p | n} (p - 2) on the odd squarefree support of b, so
    b(n) = 1/d(n) exactly, and 0 off it (and at n = 0), for n = 0..limit:
    int64 from one sieve, exact since d(n) <= n."""

    def prime_power(v, p, e):
        v *= p - 2 if e == 1 and p > 2 else 0

    return _table(limit, np.int64, prime_power, lambda x, P: x * (P - 2))


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
