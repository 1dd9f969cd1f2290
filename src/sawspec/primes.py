"""Consecutive-prime residue census (its primes from
``foundations.prime_array``) and the observed-vs-predicted reports for the
pattern frequency conjecture."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bias import Pattern, c1_pattern, c2_pattern
from .characters import CharacterTable, is_prime
from .distribution import EULER_GAMMA
from .errors import ResourceLimitError
from .foundations import prime_array

__all__ = [
    "primes_with_successors",
    "PatternCensus",
    "pattern_census",
    "log_integral",
    "conjecture_report",
]


def primes_with_successors(x: int, extra: int) -> tuple[np.ndarray, int]:
    """All primes <= x plus at least ``extra`` primes beyond; returns the
    array and the count of primes <= x."""
    margin = 200 * (extra + 1) + 2000
    while True:
        ps = prime_array(x + margin)
        n_main = int(np.searchsorted(ps, x, side="right"))
        if len(ps) - n_main >= extra:
            return ps, n_main
        margin *= 2


@dataclass(frozen=True)
class PatternCensus:
    """Counts of observed residue r-tuples along consecutive primes."""

    x: int
    q: int
    r: int
    counts: dict[tuple[int, ...], int]
    total_windows: int

    def count(self, residues) -> int:
        key = tuple(a % self.q for a in residues)
        return self.counts.get(key, 0)


MAX_CENSUS_X = 1_000_000_000


def pattern_census(x: int, q: int, r: int) -> PatternCensus:
    """Census of residue patterns over windows of r consecutive primes.

    A window starts at every p_n <= x (successors may exceed x); windows
    containing the prime q itself (residue 0) are not counted anywhere.
    """
    if r < 1:
        raise ValueError("pattern length must be >= 1")
    if x < 2:
        raise ValueError("x must be >= 2")
    if not is_prime(q):
        raise ValueError("q must be prime")
    if x > MAX_CENSUS_X:
        raise ResourceLimitError(f"x = {x} exceeds configured cap {MAX_CENSUS_X}")
    ps, n_main = primes_with_successors(x, r - 1)
    res = (ps % q).astype(np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(res, r)[:n_main]
    valid = (windows != 0).all(axis=1)
    windows = windows[valid]
    if q**r < 2**62:
        weights = q ** np.arange(r, dtype=np.int64)
        codes = windows @ weights
        uniq, cnt = np.unique(codes, return_counts=True)
        counts: dict[tuple[int, ...], int] = {}
        for code, c in zip(uniq.tolist(), cnt.tolist()):
            digits = []
            for _ in range(r):
                digits.append(code % q)
                code //= q
            counts[tuple(digits)] = int(c)
    else:
        counts = {}
        for row in windows:
            key = tuple(int(v) for v in row)
            counts[key] = counts.get(key, 0) + 1
    return PatternCensus(x, q, r, counts, int(valid.sum()))


# ---------------------------------------------------------------------------
# logarithmic integral


def log_integral(x: float) -> float:
    """Principal-value logarithmic integral li(x), by Ramanujan's series

        li(x) = gamma + log|log x| + sqrt(x) sum_{n>=1} (-1)^(n-1) (log x)^n
                / (n! 2^(n-1)) sum_{k <= (n-1)/2} 1/(2k+1),

    which converges for every x > 0.  Error contract, held by the tests
    against ``scipy.special.expi(log x)``: at most 1e-12 absolute for x < 2,
    and 1e-10 relative for x >= 2 (seen against 40-digit values: 7e-15
    absolute on [1e-12, 2], 5e-15 relative on [2, 1e12]; at x = 1e9 that
    is 4.5e-8 absolute).  li(0) = 0 and x = 1 is outside the domain.
    """
    if x < 0:
        raise ValueError("li is defined for x >= 0")
    if x == 0:
        return 0.0
    if x == 1:
        raise ValueError("li has a non-integrable singularity at x = 1")
    z = math.log(x)
    root = math.sqrt(x)
    total = 0.0
    u = z  # z^n / (n! 2^(n-1)) at n = 1
    h = 1.0  # sum of odd reciprocals up to floor((n-1)/2) terms
    n = 1
    while n < 800:
        if n % 2 == 1 and n > 1:
            h += 1.0 / n
        term = ((-1.0) ** (n - 1)) * u * h
        total += term
        if abs(u) * h * root < 1e-17 * (1.0 + abs(total) * root):
            break
        u *= z / (2.0 * (n + 1))
        n += 1
    return EULER_GAMMA + math.log(abs(z)) + root * total


# ---------------------------------------------------------------------------
# conjecture comparison reports


def conjecture_report(
    x: int,
    q: int,
    pattern: Pattern,
    table: CharacterTable | None,
    census: PatternCensus,
) -> dict:
    """Observed count in ``census`` against the main term and its first- and
    second-order corrections; residuals are normalized by li(x)/(phi^r log x).
    ``table`` is needed for patterns of length r >= 2 only.

    This is a conjecture comparison, not a verification: the error term of
    the underlying asymptotic is reported, never certified.
    """
    r = pattern.r
    if census.q != q or census.r != r or census.x != x:
        raise ValueError("census does not match the requested report")
    observed = census.count(pattern.residues)
    phi = q - 1
    main = log_integral(x) / phi**r
    c1 = c1_pattern(pattern)
    if r >= 2:
        if table is None:
            raise ValueError("second-order term needs a character table")
        c2 = c2_pattern(pattern, table)
    else:
        c2 = 0.0
    lx = math.log(x)
    llx = math.log(lx)
    pred0 = main
    pred1 = main * (1.0 + c1 * llx / lx)
    pred2 = main * (1.0 + c1 * llx / lx + c2 / lx)
    norm = main / lx
    return {
        "x": x,
        "q": q,
        "pattern": list(pattern.residues),
        "observed": observed,
        "main_term": main,
        "c1": c1,
        "c2": c2,
        "prediction_order0": pred0,
        "prediction_order1": pred1,
        "prediction_order2": pred2,
        "residual_order0": (observed - pred0) / norm,
        "residual_order1": (observed - pred1) / norm,
        "residual_order2": (observed - pred2) / norm,
    }
