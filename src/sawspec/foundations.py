"""The sawtooth, factorization, the prime sieve and the phi/mu tables, the
multiplicative coefficients a(n), b(n), and the constant C = 2 Pi_2.

Everything downstream (Dedekind spectra, bias constants, correlation
integrals, totient error moments) consumes these primitives.  Exact
identities are carried by ``fractions.Fraction``; float paths exist for
the bulk/vectorized consumers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ResourceLimitError

__all__ = [
    "psi",
    "psi_array",
    "mod_inverse",
    "factorize",
    "prime_array",
    "SieveTables",
    "build_sieves",
    "coeff_a",
    "coeff_b",
    "coeff_a_floats",
    "coeff_b_floats",
    "coeff_b_fractions",
    "constant_C",
]


# ---------------------------------------------------------------------------
# the sawtooth


def psi(x: float) -> float:
    """Centered sawtooth: {x} - 1/2 off integers, 0 at integers.

    The value is computed from |x| with the sign restored afterwards, so
    the oddness psi(-x) == -psi(x) is exact in floating point, not just up
    to rounding.
    """
    if x == math.floor(x):
        return 0.0
    sign = 1.0
    if x < 0.0:
        x = -x
        sign = -1.0
    return sign * (x - math.floor(x) - 0.5)


def psi_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`psi` (0 at integers, exact oddness)."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    return np.where(x == np.floor(x), 0.0, np.sign(x) * ((ax - np.floor(ax)) - 0.5))


# ---------------------------------------------------------------------------
# modular arithmetic and factorization


def mod_inverse(a: int, q: int) -> int:
    """Multiplicative inverse of a modulo q (q prime), in [1, q-1]."""
    if q < 2:
        raise ValueError("modulus must be >= 2")
    if a % q == 0:
        raise ValueError(f"{a} is not invertible mod {q}")
    return pow(a, -1, q)


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
# the prime sieve and the phi/mu tables


def prime_array(limit: int) -> np.ndarray:
    """All primes <= limit (plain numpy sieve)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


@dataclass(frozen=True)
class SieveTables:
    """Totient and Mobius tables on [0, limit]."""

    limit: int
    euler_phi: np.ndarray
    mobius: np.ndarray


# tracemalloc peak bytes per entry of build_sieves: int64 phi, int8 mu and
# int64 rest, plus the int64 quotients phi[2::2] // 2 of the first prime
_SIEVE_ENTRY_BYTES = 21
# the largest sieve limit: 4.2 GB at its peak
MAX_SIEVE_LIMIT = 200_000_000


def build_sieves(limit: int) -> SieveTables:
    """Build phi/mu tables up to ``limit``.

    One vectorized pass per prime p <= sqrt(limit) fills phi and mu and
    divides the powers of p out of ``rest``.  What is left in ``rest`` is 1
    or the single prime factor above sqrt(limit), applied to phi and mu in
    one array step.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds configured cap {MAX_SIEVE_LIMIT} (building "
            f"its tables would peak at {_SIEVE_ENTRY_BYTES * (limit + 1)} bytes)"
        )
    n = limit + 1
    phi = np.arange(n, dtype=np.int64)
    mu = np.ones(n, dtype=np.int8)
    mu[0] = 0
    rest = np.arange(n, dtype=np.int64)
    for p in prime_array(math.isqrt(limit)).tolist():
        phi[p::p] -= phi[p::p] // p
        mu[p::p] = -mu[p::p]
        mu[p * p :: p * p] = 0
        pk = p
        while pk <= limit:
            rest[pk::pk] //= p
            pk *= p
    big = rest > 1
    np.negative(mu, out=mu, where=big)
    np.floor_divide(phi, rest, out=rest, where=big)
    np.subtract(phi, rest, out=phi, where=big)
    return SieveTables(limit, phi, mu)


# ---------------------------------------------------------------------------
# the multiplicative coefficients a(n) and b(n)

_A_CACHE: dict[int, Fraction] = {}
_B_CACHE: dict[int, Fraction] = {}


def _a_prime_power(p: int, e: int) -> Fraction:
    if p == 2:
        return Fraction(-1, 2) if e == 1 else Fraction(0)
    if e == 1:
        return Fraction(2, p * (p - 2))
    if e == 2:
        return Fraction(-1, p * (p - 2))
    return Fraction(0)


def coeff_a(n: int) -> Fraction:
    """Multiplicative coefficient a(n): a(2) = -1/2, a(p) = 2/(p(p-2)),
    a(p^2) = -1/(p(p-2)), zero on higher prime powers (and on 2^v, v >= 2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n in _A_CACHE:
        return _A_CACHE[n]
    val = Fraction(1)
    for p, e in factorize(n):
        val *= _a_prime_power(p, e)
        if not val:
            break
    _A_CACHE[n] = val
    return val


def coeff_b(n: int) -> Fraction:
    """Dirichlet convolution b = a * (1/id): zero unless n is odd and
    squarefree, with b(p) = 1/(p-2) on odd primes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n in _B_CACHE:
        return _B_CACHE[n]
    val = Fraction(1)
    for p, e in factorize(n):
        if p == 2 or e > 1:
            val = Fraction(0)
            break
        val *= Fraction(1, p - 2)
    _B_CACHE[n] = val
    return val


def coeff_a_floats(limit: int) -> np.ndarray:
    """a(n) for n = 0..limit as float64 (a[0] = 0), built multiplicatively."""
    a = np.ones(limit + 1)
    a[0] = 0.0
    if limit >= 2:
        a[2::2] *= -0.5
    if limit >= 4:
        a[4::4] = 0.0
    for p in map(int, prime_array(limit)[1:]):  # odd primes; 2 is done above
        a[p::p] *= 2.0 / (p * (p - 2))
        if p * p <= limit:
            a[p * p :: p * p] *= -0.5
        if p * p * p <= limit:
            a[p * p * p :: p * p * p] = 0.0
    return a


def coeff_b_floats(limit: int) -> np.ndarray:
    """b(n) for n = 0..limit as float64 (zero off odd squarefree support)."""
    b = np.ones(limit + 1)
    b[0] = 0.0
    if limit >= 2:
        b[2::2] = 0.0
    for p in map(int, prime_array(limit)[1:]):  # odd primes; 2 is done above
        b[p::p] /= p - 2
        if p * p <= limit:
            b[p * p :: p * p] = 0.0
    return b


def coeff_b_fractions(limit: int) -> list[Fraction]:
    """b(n) for n = 0..limit as exact rationals."""
    return [Fraction(0)] + [coeff_b(n) for n in range(1, limit + 1)]


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
