"""Theoretical and empirical moments of the bias statistics.

The limiting moments are weighted sums of the correlation integral over
tuples: weights b(n_i) (bias constants, scaled by the Euler constant to
the ell-th power), 1/n_i (Dedekind spectra), mu(n_i)/n_i (totient error).
The second moment collapses through gcd^2 = sum_{d | gcd} J_2(d) to a
one-dimensional sum; higher even moments enumerate multisets against the
exact integral with weight pruning.  The continuous sawtooth model and its
exact pre-limit moment identity live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .correlations import b_exact
from .errors import ResourceLimitError
from .foundations import (
    coeff_b_floats,
    coeff_b_fractions,
    constant_C,
    factorize,
    jordan_table,
    mobius_table,
    psi,
)

__all__ = [
    "MomentEstimate",
    "theoretical_moment",
    "empirical_moments",
    "continuous_model_eval",
    "continuous_model_moment_exact",
    "moment_tuple_sum_exact",
]

KINDS = ("C", "s", "R")
_PRUNE = 1e-12  # tuples whose contribution bound falls below this are skipped
_MULTISET_BUDGET = 300_000  # support multisets theoretical_moment enumerates
_MODEL_LCM_CAP = 100_000  # period L of the exact model moment


@dataclass(frozen=True)
class MomentEstimate:
    kind: str
    ell: int
    B: int
    value: float
    tail_note: str


def _multisets(support, ell: int):
    """Yield (combo, multiplicity) over the size-ell multisets of ``support``
    in ``combinations_with_replacement`` order; the multiplicity is the
    number of distinct orderings of combo."""
    fact = math.factorial(ell)
    for combo in combinations_with_replacement(support, ell):
        mult = fact
        run = 1
        for i in range(1, ell):
            run = run + 1 if combo[i] == combo[i - 1] else 1
            if run > 1:
                mult //= run
        yield combo, mult


def _support_weights(kind: str, B: int) -> np.ndarray:
    """w[n] for n = 0..B; the tuple weight is prod w(n_i)."""
    if kind == "C":
        return coeff_b_floats(B)
    n = np.arange(B + 1, dtype=float)
    n[0] = np.nan
    if kind == "s":
        w = 1.0 / n
    elif kind == "R":
        w = mobius_table(B) / n
    else:
        raise ValueError(f"unknown moment kind {kind!r}")
    w[0] = 0.0
    return w


def _second_moment(kind: str, B: int) -> float:
    # sum_{n1,n2<=B} w(n1) w(n2) gcd^2 / (12 n1 n2), regrouped through J_2
    w = _support_weights(kind, B)
    n = np.arange(B + 1, dtype=float)
    n[0] = 1.0
    f = w / n
    J = jordan_table(B, 2).astype(float)
    total = 0.0
    for dd in range(1, B + 1):
        t = float(np.sum(f[dd::dd]))
        if t:
            total += J[dd] * t * t
    return total / 12.0


def theoretical_moment(kind: str, ell: int, B: int) -> MomentEstimate:
    """Truncated tuple sum for the ell-th limiting moment, all n_i <= B.

    Odd moments vanish identically.  ell = 2 uses the exact gcd^2
    regrouping; even ell >= 4 enumerates support multisets (odd squarefree
    for the bias kind, squarefree for the totient kind), at most 300 000 of
    them, skips a tuple when its contribution bound falls below 1e-12 and
    reports the skipped (pruned) mass.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if ell < 1 or B < 1:
        raise ValueError("ell and B must be >= 1")
    if ell % 2 == 1:
        return MomentEstimate(kind, ell, B, 0.0, "odd moment vanishes identically")
    scale = constant_C()[0] ** ell if kind == "C" else 1.0

    if ell == 2:
        value = scale * _second_moment(kind, B)
        return MomentEstimate(kind, ell, B, value, f"pair sum over all n <= {B}")

    w = _support_weights(kind, B)
    ns = np.nonzero(w)[0]
    count = math.comb(len(ns) + ell - 1, ell)
    if count > _MULTISET_BUDGET:
        raise ResourceLimitError(
            f"{count} support multisets exceed budget {_MULTISET_BUDGET}"
        )
    total = 0.0
    pruned_mass = 0.0
    floor = 2.0**-ell  # |correlation| <= 2^-ell on any tuple
    for combo, mult in _multisets(ns.tolist(), ell):
        weight = 1.0
        for n in combo:
            weight *= w[n]
        contrib_bound = abs(weight) * mult * floor
        if contrib_bound < _PRUNE:
            pruned_mass += contrib_bound
            continue
        total += weight * mult * float(b_exact(combo))
    note = (
        f"multiset sum, support {len(ns)} values <= {B}; "
        f"pruned mass bound {pruned_mass:.3g}"
    )
    return MomentEstimate(kind, ell, B, scale * total, note)


def empirical_moments(values, ell_max: int) -> list[float]:
    """Plain power means (1/n) sum v^ell for ell = 1..ell_max."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty sample set")
    out = []
    p = np.ones_like(v)
    for _ in range(ell_max):
        p = p * v
        out.append(float(np.sum(p)) / v.size)
    return out


# ---------------------------------------------------------------------------
# continuous sawtooth model


def continuous_model_eval(x: float, B: int) -> float:
    """C * sum_{n <= B} b(n) psi(x/n) with the limiting constant."""
    if B < 1:
        raise ValueError("B must be >= 1")
    b = coeff_b_floats(B)
    total = sum(b[n] * psi(x / n) for n in np.nonzero(b)[0].tolist())
    return constant_C()[0] * total


def continuous_model_moment_exact(ell: int, B: int) -> Fraction:
    """Exact (1/L) integral of (sum_{n<=B} b(n) psi(x/n))^ell over one period
    L <= 100 000, the product of the odd primes <= B (b lives on odd
    squarefree n), in rational arithmetic.  The model is linear on every unit
    interval, so each piece integrates in closed form; C^ell is factored out.
    """
    if ell < 1 or ell > 6:
        raise ValueError("exact model moments support 1 <= ell <= 6")
    if B < 1:
        raise ValueError("B must be >= 1")
    L = 1  # the product of the odd primes <= B, checked against the cap as it grows
    for p in range(3, B + 1, 2):
        if factorize(p) == [(p, 1)]:
            L *= p
            if L > _MODEL_LCM_CAP:
                raise ResourceLimitError(
                    f"model period (the product of the odd primes <= {B}) exceeds "
                    f"cap {_MODEL_LCM_CAP} from the prime {p} on"
                )
    b = coeff_b_fractions(B)
    support = [n for n in range(1, B + 1) if b[n]]
    slope = sum(b[n] / n for n in support)  # Fraction, > 0 (b(1) = 1)
    half = Fraction(1, 2)
    total = Fraction(0)
    for m in range(L):
        base = sum(b[n] * (Fraction(m % n, n) - half) for n in support)
        total += ((base + slope) ** (ell + 1) - base ** (ell + 1)) / (ell + 1)
    return total / slope / L


def moment_tuple_sum_exact(ell: int, B: int) -> Fraction:
    """sum over tuples (n_1..n_ell), n_i <= B, of prod b(n_i) * the exact
    correlation integral; the tuple-sum side of the pre-limit identity."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    b = coeff_b_fractions(B)
    support = [n for n in range(1, B + 1) if b[n]]
    total = Fraction(0)
    for combo, mult in _multisets(support, ell):
        weight = Fraction(1)
        for n in combo:
            weight *= b[n]
        total += weight * mult * b_exact(combo)
    return total

