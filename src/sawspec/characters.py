"""Dirichlet character group mod a prime, Gauss sums and the attached L-data.

A ``PrimeContext`` fixes a primitive root g and the discrete-log table, so
character j acts by chi_j(a) = e(j * ind(a) / (q-1)).  The table rows hold
L(0,chi) (finite sum), L(1,chi) for odd chi (functional equation), the Gauss
sum, and the Euler-correction factor A_{q,chi} as a truncated series.  All
of these are sums over the cyclic group and are evaluated together as
index-reordered DFTs of length q-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .foundations import SieveTables, coeff_a_floats, constant_C, factorize

__all__ = [
    "is_prime",
    "primitive_root",
    "PrimeContext",
    "build_context",
    "CharacterTable",
    "build_table",
    "char_value",
    "gauss_sum",
    "l_one_series",
]

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the 64-bit range."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(q: int) -> None:
    """Raise ValueError unless q is an odd prime (the moduli the maths needs)."""
    if q < 3 or not is_prime(q):
        raise ValueError(f"{q} is not an odd prime")


def require_int64_modulus(q: int, nbytes: int) -> None:
    """Raise ResourceLimitError for q >= 2^31, where the vectorized residue
    kernels would overflow int64 (they form h^2 + k^2 + 1 with k <= q, and
    products below q^2).  ``nbytes`` is what their arrays would have needed."""
    if q >= 1 << 31:
        raise ResourceLimitError(
            f"q = {q} >= 2^31 overflows the int64 residue kernels "
            f"(their arrays would need {nbytes} bytes)"
        )


def primitive_root(q: int) -> int:
    """Smallest primitive root of the prime q (trial over candidates)."""
    if q == 2:
        return 1
    factors = [p for p, _ in factorize(q - 1)]
    for g in range(2, q):
        if all(pow(g, (q - 1) // r, q) != 1 for r in factors):
            return g
    raise ArithmeticError(f"no primitive root found for {q}; is it prime?")


@dataclass(frozen=True)
class PrimeContext:
    """Prime modulus with discrete-log and inverse tables.

    ``powers[m] = g^m mod q`` for m in [0, q-2] and ``index`` is its inverse
    permutation (index[0] = -1 as a sentinel).
    """

    q: int
    primitive_root: int
    powers: np.ndarray
    index: np.ndarray
    inverses: np.ndarray


def build_context(q: int) -> PrimeContext:
    require_odd_prime(q)
    M = q - 1
    require_int64_modulus(q, 8 * (M + 2 * q))
    g = primitive_root(q)
    # powers by doubling: powers[n:2n] = powers[:n] * g^n, products below q^2
    powers = np.empty(M, dtype=np.int64)
    powers[0] = 1
    n = 1
    while n < M:
        m = min(n, M - n)
        powers[n : n + m] = powers[:m] * pow(g, n, q) % q
        n += m
    exponents = np.arange(M, dtype=np.int64)
    index = np.full(q, -1, dtype=np.int64)
    index[powers] = exponents
    # (g^m)^-1 = g^(-m mod M); entry 0 holds 0
    inverses = np.zeros(q, dtype=np.int64)
    inverses[powers] = powers[-exponents % M]
    return PrimeContext(q, g, powers, index, inverses)


@dataclass(frozen=True)
class CharacterTable:
    """Per-character data for all q-1 characters mod q, indexed by j.

    Character j is odd iff j is odd.  ``l_one`` holds the functional-equation
    value for odd j and 0 for even j (even characters never contribute to the
    bias sums because l_zero vanishes there).
    """

    context: PrimeContext
    cutoff: int
    l_zero: np.ndarray
    l_one: np.ndarray
    gauss: np.ndarray
    a_chi: np.ndarray
    a_tail_bound: float
    constant: float

    @property
    def q(self) -> int:
        return self.context.q


def _group_dft(values: np.ndarray) -> np.ndarray:
    # F[j] = sum_m values[m] e(+jm/M): the positive-sign DFT over Z/(q-1)
    return np.fft.ifft(values) * len(values)


def build_table(
    q: int,
    a_series_cutoff: int = 100_000,
    sieves: SieveTables | None = None,
    max_q: int = 2_000_000,
) -> CharacterTable:
    """Build the full character table for the prime q.

    L(0,chi_j) comes from the finite sum -sum_a chi(a) psi(a/q); L(1,chi_j)
    for odd j from L(1,chi) = -tau(chi) pi i / q * L(0, chi_bar); A_{q,chi_j}
    from the a(n)-series through 2n, truncated at ``a_series_cutoff`` with a
    recorded tail bound.  Even characters get l_zero = 0 exactly.
    """
    if q > max_q:
        raise ResourceLimitError(f"q = {q} exceeds configured cap {max_q}")
    ctx = build_context(q)
    M = q - 1
    powers = ctx.powers

    # L(0, chi_j) = -sum_m psi(g^m/q) e(jm/M)
    saw = powers / q - 0.5
    l_zero = -_group_dft(saw)
    l_zero[0] = 0.0  # principal: the psi values sum to zero
    l_zero[2::2] = 0.0  # even characters: exact zero, drop FFT noise

    # tau(chi_j) = sum_m e(g^m/q) e(jm/M)
    gauss = _group_dft(np.exp((2j * math.pi / q) * powers))

    # functional equation for odd j: L(1,chi_j) = -tau(chi_j) pi i/q L(0, chi_bar_j)
    l_one = np.zeros(M, dtype=complex)
    j_odd = np.arange(1, M, 2)
    l_zero_conj = l_zero[(M - j_odd) % M]
    l_one[j_odd] = -gauss[j_odd] * (1j * math.pi / q) * l_zero_conj

    # A_{q,chi_j} = C_q * sum_{n <= N, (n,q)=1} a(n) chi_j(2n)
    a_vals = coeff_a_floats(a_series_cutoff, sieves)
    n = np.nonzero(a_vals)[0]
    n = n[n % q != 0]
    w = np.zeros(M)
    np.add.at(w, ctx.index[(2 * n) % q], a_vals[n])
    c_q, _ = constant_C(excluded_prime=q)
    a_chi = c_q * _group_dft(w)
    tail_bound = 2.0 * a_series_cutoff ** (-0.45)

    return CharacterTable(
        ctx, a_series_cutoff, l_zero, l_one, gauss, a_chi, tail_bound, c_q
    )


def char_value(table: CharacterTable, j: int, a: int) -> complex:
    """chi_j(a) = e(j ind(a)/(q-1)), or 0 on the residue 0."""
    ctx = table.context
    a %= ctx.q
    if a == 0:
        return 0j
    return complex(np.exp(2j * math.pi * j * int(ctx.index[a]) / (ctx.q - 1)))


def gauss_sum(table: CharacterTable, j: int) -> complex:
    """tau(chi_j) = sum_m chi_j(m) e(m/q)."""
    return complex(table.gauss[j % (table.q - 1)])


def l_one_series(
    table: CharacterTable, j: int, x: float, chunk: int = 1 << 22
) -> complex:
    """Truncated Dirichlet series sum_{n <= x} chi_j(n)/n; error O(q/x)."""
    ctx = table.context
    q = ctx.q
    M = q - 1
    if j % M == 0:
        raise ValueError("series cutoff route requires a nonprincipal character")
    total = 0j
    top = int(x)
    for lo in range(1, top + 1, chunk):
        n = np.arange(lo, min(lo + chunk, top + 1), dtype=np.int64)
        nm = n % q
        keep = nm != 0
        n = n[keep]
        phases = np.exp((2j * math.pi / M) * (j * ctx.index[nm[keep]] % M))
        total += complex(np.sum(phases / n))
    return total
