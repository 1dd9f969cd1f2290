"""Prime-race bias constants for patterns of consecutive primes mod q.

The first-order constant penalizes immediate repetitions and is elementary.
The second-order pair constant has an explicit diagonal closed form and a
character-sum expression off the diagonal; its large-q behaviour is carried
by the odd-character average C(k), computed here by independent routes: the
table's character sums (from the Dedekind spectrum), the per-character
products (``ck_point``), and the truncated sawtooth series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .characters import (
    CharacterTable,
    PrimeContext,
    _group_correlation,
    _odd_over_group,
    _weights_by_inverse_2n,
    build_context,
    require_below_cap,
    require_odd_prime,
)
from .foundations import coeff_b_floats, constant_C

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
    """C(k) for k = 1..q-1.  ``values`` has length q with entry 0 unused
    (NaN); the stored table is exactly odd: values[q-k] == -values[k]."""

    q: int
    values: np.ndarray
    method: str
    truncation: dict = field(default_factory=dict)

    @property
    def samples(self) -> np.ndarray:
        return self.values[1:]

    def value(self, k: int) -> float:
        k %= self.q
        if k == 0:
            raise ValueError("C(0) is outside the domain")
        return float(self.values[k])


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


def _truncated_terms(ctx: PrimeContext, cutoff: int | None):
    """Terms of -C_q sum_{n <= N, (n,q)=1} b(n) psi(k inv(2n)/q):
    (N, C_q, the nonzero weights b(n), e with inv(2n) = g^e mod q)."""
    N = cutoff if cutoff is not None else max(1000, ctx.q)
    c_q, _ = constant_C(excluded_prime=ctx.q)
    return (N, c_q) + _weights_by_inverse_2n(ctx, coeff_b_floats(N))


def ck_point(
    q: int,
    k: int,
    method: str = "characters",
    table: CharacterTable | None = None,
) -> float:
    """One bias value C(k) by the chosen route.

    ``characters`` averages chi_bar(k) L(0,chi) L(1,chi) A_{q,chi} over odd
    characters; ``truncated`` evaluates -C sum_{n <= N} b(n) psi(k inv(2n)/q)
    at N = max(1000, q).  Both are antisymmetrized over k <-> q-k so oddness
    is exact.
    """
    require_odd_prime(q)
    if k % q == 0:
        raise ValueError("k must be nonzero mod q")
    if method == "characters":
        if table is None or table.q != q:
            raise ValueError("characters route needs a table built for q")
        return 0.5 * (_ck_char_raw(table, k) - _ck_char_raw(table, q - k))
    if method == "truncated":
        ctx = build_context(q)
        _, c_q, weights, e = _truncated_terms(ctx, None)
        inv2n = ctx.powers[e]

        def raw(kk: int) -> float:
            return -c_q * float(np.sum(weights * ((kk * inv2n) % q / q - 0.5)))

        return 0.5 * (raw(k % q) - raw(q - k % q))
    raise ValueError(f"unknown method {method!r}")


# tracemalloc peak per residue of ck_all: the truncated route at the default
# cutoff N = q (the characters route peaks at 8, reading a built table)
_CK_BYTES_PER_RESIDUE = 67


def ck_all(
    q: int,
    method: str = "characters",
    table: CharacterTable | None = None,
    cutoff: int | None = None,
) -> CkVector:
    """The full vector of bias values C(k), k = 1..q-1, exactly odd.

    The character route scales the table's character sums, which
    ``build_table`` computes from the Dedekind spectrum, C(k) = S(k)/(q-1),
    computed as S(k) * (1/(q-1)).  The truncated route
    works over the cyclic group, k = g^i: it bins the weights b(n) by
    e = ind(inv(2n)) into W, so that C(g^i) = -C_q sum_e W_e psi(g^(i+e)/q);
    psi(g^(e+H)/q) = -psi(g^e/q), H = (q-1)/2, folds that to Rader's form

        C(g^i) = -C_q sum_{e<H} (W_e - W_{e+H}) psi(g^(i+e)/q),  i < H,

    one real correlation by FFT at the smallest 5-smooth length >= q - 2,
    and C(g^(i+H)) = -C(g^i) fills the rest.
    """
    require_odd_prime(q)
    require_below_cap(q, "C(k) vector", _CK_BYTES_PER_RESIDUE)
    if method == "characters":
        if table is None or table.q != q:
            raise ValueError("characters route needs a table built for q")
        values = table.bias_sums * (1.0 / (q - 1))
        values[0] = np.nan
        meta = {"a_series_cutoff": table.cutoff}
    elif method == "truncated":
        ctx = build_context(q)
        N, c_q, weights, e = _truncated_terms(ctx, cutoff)
        W = np.bincount(e, weights=weights, minlength=q - 1)
        H = (q - 1) // 2
        half = -c_q * _group_correlation(W[:H] - W[H:], ctx.powers / q - 0.5)
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
    S(b-a) + (S(b) - S(a))/phi(q).
    """
    if a % q == 0 or b % q == 0:
        raise ValueError("a, b must be coprime to q")
    if table.q != q:
        raise ValueError("character table was built for a different modulus")
    if (a - b) % q == 0:
        return (q - 2) / 2.0 * math.log(q / (2.0 * math.pi))
    M = q - 1
    total = table.bias_sum(b - a) + (table.bias_sum(b) - table.bias_sum(a)) / M
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
