"""Theoretical moments of the bias statistics; this module reads no samples
(their power means are ``distribution.empirical_moments``).

The limiting moments are weighted sums of the correlation integral over
tuples: weights b(n_i) (bias constants, scaled by the Euler constant to
the ell-th power), 1/n_i (Dedekind spectra), mu(n_i)/n_i (totient error).
The second moment collapses through gcd^2 = sum_{d | gcd} J_2(d) to a
one-dimensional sum, in O(sqrt B) array steps; higher even moments
enumerate multisets against the exact integral with weight pruning.

The same weights define the sawtooth model of each kind,
scale * sum_{n <= B} w(n) psi(u/n): C(k) (scale C), pi i s_hat_q (scale 1)
and Rt (scale -1).  The exact pre-limit moment identity of the C model
lives here too: both sides read b(n) = 1/d(n) from the int64 d(n), and the
model's side is one integer power sum over its period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .correlations import MAX_FACTORS, b_exact
from .errors import ResourceLimitError
from .foundations import (
    coeff_b_denominators,
    coeff_b_floats,
    constant_C,
    jordan_table,
    mobius_table,
    prime_array,
    psi_array,
    require_sieve_limit,
)

__all__ = [
    "MomentEstimate",
    "theoretical_moment",
    "sawtooth_model",
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


def _require_multiset_budget(size: int, ell: int) -> None:
    """ResourceLimitError past 300 000 size-ell multisets of ``size`` values."""
    count = math.comb(size + ell - 1, ell)
    if count > _MULTISET_BUDGET:
        raise ResourceLimitError(
            f"{count} support multisets exceed budget {_MULTISET_BUDGET}"
        )


def _multisets(support, ell: int):
    """Yield (combo, multiplicity) over the size-ell multisets of ``support``
    in ``combinations_with_replacement`` order; the multiplicity is the
    number of distinct orderings of combo.  Callers hold the count to the
    budget first (``_require_multiset_budget``)."""
    fact = math.factorial(ell)
    for combo in combinations_with_replacement(support, ell):
        mult = fact
        run = 1
        for i in range(1, ell):
            run = run + 1 if combo[i] == combo[i - 1] else 1
            if run > 1:
                mult //= run
        yield combo, mult


def _model_scale(kind: str) -> float:
    """The factor before the weighted sawtooth sum of each kind."""
    return {"C": constant_C()[0], "s": 1.0, "R": -1.0}[kind]


def _support_weights(kind: str, B: int) -> np.ndarray:
    """w[n] for n = 0..B (kinds s and R in place in one float64 array); the
    tuple weight is prod w(n_i).  B is held to the sieve cap before any array
    of length B + 1 exists."""
    require_sieve_limit(B, 10)  # float64 weights, int8 mu and one sieve segment
    if kind == "C":
        return coeff_b_floats(B)
    w = np.arange(B + 1, dtype=float)
    if kind == "s":
        np.reciprocal(w[1:], out=w[1:])
    elif kind == "R":
        np.divide(mobius_table(B)[1:], w[1:], out=w[1:])
    else:
        raise ValueError(f"unknown moment kind {kind!r}")
    return w


def _second_moment(kind: str, B: int) -> float:
    """sum_{n1,n2<=B} w(n1) w(n2) gcd^2 / (12 n1 n2) = sum_{d<=B} J_2(d)
    t(d)^2 / 12, t(d) = sum_k f(dk), f(n) = w(n)/n.  With r = isqrt(B), t(d)
    is one np.sum of f[d::d] for d <= r, and for d > r adds f(dk) for k = 1,
    2, ... in turn to zero, one strided slice over those d per k; the total
    is one np.dot of J_2 with t^2.  The peak, t beside J_2 and its float
    copy, is 24 bytes per entry; the cap is checked at 25 first."""
    require_sieve_limit(B, 25)
    f = _support_weights(kind, B)
    f[1:] /= np.arange(1, B + 1)
    r = math.isqrt(B)
    t = np.zeros(B + 1)
    for d in range(1, r + 1):
        t[d] = np.sum(f[d::d])
    for k in range(1, B // (r + 1) + 1):
        t[r + 1 : B // k + 1] += f[(r + 1) * k :: k][: B // k - r]
    del f
    np.square(t, out=t)
    return float(np.dot(jordan_table(B, 2).astype(float), t)) / 12.0


def theoretical_moment(kind: str, ell: int, B: int) -> MomentEstimate:
    """Truncated tuple sum for the ell-th limiting moment, all n_i <= B.

    Odd moments vanish identically.  ell = 2 uses the exact gcd^2
    regrouping; even ell >= 4 enumerates support multisets (odd squarefree
    for the bias kind, squarefree for the totient kind), at most 300 000 of
    them, skips a tuple when its contribution bound falls below 1e-12 and
    reports the skipped (pruned) mass.  An even ell above the correlation
    integral's ``MAX_FACTORS`` raises ResourceLimitError before any work.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if ell < 1 or B < 1:
        raise ValueError("ell and B must be >= 1")
    if ell % 2 == 1:
        return MomentEstimate(kind, ell, B, 0.0, "odd moment vanishes identically")
    if ell > MAX_FACTORS:
        raise ResourceLimitError(f"integration degree ell = {ell} exceeds cap {MAX_FACTORS}")
    scale = _model_scale(kind) ** ell

    if ell == 2:
        value = scale * _second_moment(kind, B)
        return MomentEstimate(kind, ell, B, value, f"pair sum over all n <= {B}")

    w = _support_weights(kind, B)
    _require_multiset_budget(np.count_nonzero(w), ell)
    ns = np.nonzero(w)[0]
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


# ---------------------------------------------------------------------------
# the sawtooth models


def sawtooth_model(kind: str, u, B: int):
    """scale * sum_{n <= B, w(n) != 0} w(n) psi(u/n), the truncated sawtooth
    model of each dataset label of ``distribution.DEFAULT_SCALES``, with the
    weights of :func:`theoretical_moment`: scale C and b(n) for ``"C"``
    (C(k)), 1 and 1/n for ``"s"`` (pi i s_hat_q), -1 and mu(n)/n for ``"R"``
    (Rt).  The terms are added in increasing n; a float for scalar u, else
    an array of u's shape."""
    if B < 1:
        raise ValueError("B must be >= 1")
    w = _support_weights(kind, B)
    us = np.asarray(u, dtype=float)
    total = np.zeros_like(us)
    for n in np.nonzero(w)[0].tolist():
        total += w[n] * psi_array(us / n)
    total = _model_scale(kind) * total
    return float(total) if np.ndim(u) == 0 else total


def continuous_model_moment_exact(ell: int, B: int) -> Fraction:
    """Exact (1/L) integral of (sum_{n<=B} b(n) psi(x/n))^ell over one period
    L <= 100 000, the product of the odd primes <= B (so B <= 16; b lives on
    odd squarefree n); C^ell is factored out.  On [m, m + 1) the model is
    base_m + slope t.  With b = 1/d and D = lcm n d(n) (at most 45 045),
    X_m = 2D base_m (int64) and S = 2D slope are integers, and the moment is
    sum_m ((X_m + S)^(ell+1) - X_m^(ell+1)) / ((ell+1) S (2D)^ell L)."""
    if ell < 1 or ell > 6:
        raise ValueError("exact model moments support 1 <= ell <= 6")
    if B < 1:
        raise ValueError("B must be >= 1")
    # L, the product of the odd primes <= B, is checked against the cap as it
    # grows; the odd primes <= the cap multiply past it, so none above is listed
    L = 1
    for p in prime_array(min(B, _MODEL_LCM_CAP))[1:].tolist():
        L *= p
        if L > _MODEL_LCM_CAP:
            raise ResourceLimitError(
                f"model period (the product of the odd primes <= {B}) exceeds "
                f"cap {_MODEL_LCM_CAP} from the prime {p} on"
            )
    d = coeff_b_denominators(B)
    nd = {n: n * int(d[n]) for n in np.flatnonzero(d).tolist()}
    D = math.lcm(*nd.values())
    m = np.arange(L, dtype=np.int64)
    X = sum(D // v * (2 * (m % n) - n) for n, v in nd.items()).astype(object)
    S = sum(2 * D // v for v in nd.values())  # > 0 (b(1) = 1)
    total = int(np.sum((X + S) ** (ell + 1) - X ** (ell + 1)))
    return Fraction(total, (ell + 1) * S * (2 * D) ** ell * L)


def moment_tuple_sum_exact(ell: int, B: int) -> Fraction:
    """sum over tuples (n_1..n_ell), n_i <= B, of prod b(n_i) * the exact
    correlation integral; the tuple-sum side of the pre-limit identity.
    Like :func:`theoretical_moment`, at most 300 000 support multisets,
    checked before any Fraction or list exists: b(n) = 1/d(n) is read from
    the int64 denominators, and a multiset's weight is mult / prod d(n_i)."""
    if ell < 1 or B < 1:
        raise ValueError("ell and B must be >= 1")
    d = coeff_b_denominators(B)
    _require_multiset_budget(np.count_nonzero(d), ell)
    return sum(
        Fraction(mult, math.prod(int(d[n]) for n in combo)) * b_exact(combo)
        for combo, mult in _multisets(np.flatnonzero(d).tolist(), ell)
    )
