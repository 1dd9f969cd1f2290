"""Prime-race bias constants for patterns of consecutive primes mod q.

The first-order constant penalizes immediate repetitions and is elementary.
The second-order pair constant has an explicit diagonal closed form and a
character-sum expression off the diagonal; its large-q behaviour is carried
by the odd-character average C(k), computed here by independent routes: the
table's character sums (from the Dedekind spectrum), the per-character
products (``ck_point``), and the truncated sawtooth series (``ck_all``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .characters import (
    CharacterTable,
    _fold,
    _inverse_2n_terms,
    _odd_at,
    _odd_correlation,
    _odd_over_group,
    _psi_kernel,
    build_context,
    require_below_cap,
    require_odd_prime,
)
from .foundations import coeff_b_floats, constant_C, require_sieve_limit

__all__ = [
    "Pattern",
    "CkVector",
    "ck_point",
    "ck_all",
    "c1_pattern",
    "c2_pair",
    "c2_pattern",
]


@dataclass(frozen=True)
class Pattern:
    """A residue pattern (a_1, ..., a_r) mod q, each a_i coprime to q."""

    q: int
    residues: tuple[int, ...]

    def __post_init__(self):
        if len(self.residues) < 1:
            raise ValueError("pattern must have length >= 1")
        if any(a % self.q == 0 for a in self.residues):
            raise ValueError("pattern residues must be coprime to q")

    @property
    def r(self) -> int:
        return len(self.residues)


@dataclass(frozen=True)
class CkVector:
    """C(k), k = 1..q-1, in ``values`` of length q, NaN at the unused entry 0:
    written from a group half, so exactly odd, values[q-k] == -values[k]."""

    q: int
    values: np.ndarray
    method: str
    truncation: dict = field(default_factory=dict)

    @property
    def samples(self) -> np.ndarray:
        return self.values[1:]


def c1_pattern(pattern: Pattern) -> float:
    """First-order constant: (phi(q)/2)((r-1)/phi(q) - #immediate repeats)."""
    q, res = pattern.q, pattern.residues
    phi = q - 1
    repeats = sum(
        1 for i in range(len(res) - 1) if (res[i] - res[i + 1]) % q == 0
    )
    return (phi / 2.0) * ((len(res) - 1) / phi - repeats)


# ---------------------------------------------------------------------------
# C(k)


def _ck_char_raw(table: CharacterTable, k: int) -> float:
    products = table.l_zero * table.l_one * table.a_chi
    val = np.sum(table.chi_bar(k) * products) / (table.q - 1)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ArithmeticError("character sum for C(k) not real enough")
    return float(val.real)


def ck_point(
    q: int,
    k: int,
    method: str = "characters",
    table: CharacterTable | None = None,
) -> float:
    """One bias value C(k) from the table's per-character rows.

    ``characters``, the one method, averages chi_bar(k) L(0,chi) L(1,chi)
    A_{q,chi} over the odd characters, antisymmetrized over k <-> q-k so
    oddness is exact.  The truncated series' point value is a test oracle
    (``tests/oracles.py``); the library's truncated C(k) is ``ck_all``'s.
    """
    require_odd_prime(q)
    if k % q == 0:
        raise ValueError("k must be nonzero mod q")
    if method != "characters":
        raise ValueError(f"unknown method {method!r}")
    if table is None or table.q != q:
        raise ValueError("characters route needs a table built for q")
    return 0.5 * (_ck_char_raw(table, k) - _ck_char_raw(table, q - k))


# tracemalloc peak per residue of ck_all: the truncated route at the default
# cutoff N = q (29.0 at q ~ 1e6, binning or correlating beside the context);
# the characters route peaks at 8.1, its vector written and scaled in place
_CK_BYTES_PER_RESIDUE = 29


def ck_all(
    q: int,
    method: str = "characters",
    table: CharacterTable | None = None,
    cutoff: int | None = None,
) -> CkVector:
    """The full vector of bias values C(k), k = 1..q-1, exactly odd.

    The character route writes the half of the table's character sums
    (``build_table``, from the Dedekind spectrum) and scales the vector in
    place, C(k) = S(k)/(q-1) as S(k) * (1/(q-1)).  The truncated route bins the
    weights b(n) at x = inv(2n) mod q into W, as ``build_table`` bins a(n), so that

        C(k) = -C_q sum_x W(x) psi(kx/q),

    a correlation with the odd psi, which Rader's reindexing over the group
    computes by one real FFT at the smallest 5-smooth length >= q - 2
    (``characters._odd_correlation``).  Either half is only read, written to
    the residue vector through the group with NaN at 0.
    """
    require_odd_prime(q)
    require_below_cap(q, "C(k) vector", _CK_BYTES_PER_RESIDUE)
    if method == "characters":
        if table is None or table.q != q:
            raise ValueError("characters route needs a table built for q")
        values = _odd_over_group(table.context, table.half, np.nan)
        values *= 1.0 / (q - 1)
        meta = {"a_series_cutoff": table.cutoff}
    elif method == "truncated":
        N = cutoff if cutoff is not None else max(1000, q)
        if N < 1:
            raise ValueError(f"series cutoff N = {N} must be >= 1")
        # tracemalloc peak per entry of [0, N]: the b(n) table beside the
        # index array over its odd squarefree n (14.92)
        require_sieve_limit(N, 15)
        ctx = build_context(q)
        c_q, _ = constant_C(excluded_prime=q)
        # the terms are freed once folded (at N = q they outweigh their fold),
        # and the fold once transformed
        half = _odd_correlation(
            ctx, _fold(q, *_inverse_2n_terms(ctx, coeff_b_floats, N)), _psi_kernel(q), -c_q
        )
        values = _odd_over_group(ctx, half, np.nan)
        meta = {"series_cutoff": N}
    else:
        raise ValueError(f"unknown method {method!r}")
    return CkVector(q, values, method, meta)


# ---------------------------------------------------------------------------
# c2


def c2_pair(q: int, a: int, b: int, table: CharacterTable) -> float:
    """Second-order pair constant c2(q;(a,b)).

    Diagonal pairs have the closed form ((q-2)/2) log(q/2pi); otherwise the
    nonprincipal-character sum with the (chi_bar(b) - chi_bar(a))/phi
    correction term is read from the table's character sums: with
    S(x) = sum_chi chi_bar(x) L(0,chi) L(1,chi) A_{q,chi}, the sum is
    S(b-a) + (S(b) - S(a))/phi(q), each S read from the table's half
    through the discrete log of its residue mod q.  a or b = 0 mod q raises
    ValueError.
    """
    if a % q == 0 or b % q == 0:
        raise ValueError("a, b must be coprime to q")
    if table.q != q:
        raise ValueError("character table was built for a different modulus")
    if (a - b) % q == 0:
        return (q - 2) / 2.0 * math.log(q / (2.0 * math.pi))
    M = q - 1
    S = _odd_at(table.half, table.context.index[[(b - a) % q, b % q, a % q]])
    total = float(S[0]) + (float(S[1]) - float(S[2])) / M
    return 0.5 * math.log(2.0 * math.pi / q) + (q / M) * total


def c2_pattern(pattern: Pattern, table: CharacterTable) -> float:
    """Second-order constant for patterns of length r >= 2, composed from
    consecutive pairs plus the gap-j repeat corrections."""
    q, res = pattern.q, pattern.residues
    r = len(res)
    if r < 2:
        raise ValueError("c2 needs a pattern of length >= 2")
    total = sum(c2_pair(q, res[i], res[i + 1], table) for i in range(r - 1))
    phi = q - 1
    for jgap in range(1, r - 1):
        matches = sum(
            1 for i in range(r - jgap - 1) if (res[i] - res[i + jgap + 1]) % q == 0
        )
        total += (phi / 2.0) * (1.0 / jgap) * ((r - 1 - jgap) / phi - matches)
    return total
