"""Consecutive-prime residue census, read from the segmented prime stream
``foundations.prime_blocks`` one segment at a time under caps on x, on the
pattern length and on the bytes of the distinct patterns, and the
observed-vs-predicted reports for the pattern frequency conjecture."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count, islice

import numpy as np

from .bias import Pattern, c1_pattern, c2_pattern
from .characters import CharacterTable, is_prime
from .distribution import EULER_GAMMA
from .errors import ResourceLimitError
from .foundations import prime_blocks

__all__ = [
    "PatternCensus",
    "pattern_census",
    "log_integral",
    "conjecture_report",
]


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
MAX_CENSUS_R = 32
MAX_CENSUS_BYTES = 2**30


def pattern_census(x: int, q: int, r: int) -> PatternCensus:
    """Census of residue patterns over windows of r consecutive primes.

    A window starts at every p_n <= x (successors may exceed x); windows
    containing the prime q itself (residue 0) are not counted anywhere.

    The primes <= x stream from ``prime_blocks`` a segment at a time, the
    r - 1 after x from ``is_prime``; each block's window codes sum_j res_j q^j
    (Python integers once q^r >= 2^62) are counted by one ``np.unique``.
    The distinct patterns, Python objects, number at most q^r and pi(x) <
    1.25506 x / log x (Rosser-Schoenfeld); their bytes are checked against
    ``MAX_CENSUS_BYTES`` before any sieve work.
    """
    if r < 1:
        raise ValueError("pattern length must be >= 1")
    if x < 2:
        raise ValueError("x must be >= 2")
    if not is_prime(q):
        raise ValueError("q must be prime")
    if x > MAX_CENSUS_X:
        raise ResourceLimitError(
            f"x = {x} exceeds configured cap {MAX_CENSUS_X} on sieve work (x entries)"
        )
    if r > MAX_CENSUS_R:
        raise ResourceLimitError(
            f"r = {r} exceeds configured cap {MAX_CENSUS_R} on pattern length"
        )
    # 200 + 64 r bytes per pattern bounds the peaks measured at q ~ 1e6, r = 2..64
    patterns = min(q**r, math.ceil(1.25506 * x / math.log(x)))
    need = patterns * (200 + 64 * r)
    if need > MAX_CENSUS_BYTES:
        raise ResourceLimitError(
            f"up to {patterns} distinct patterns of length {r} would hold about "
            f"{need} bytes, above the configured cap {MAX_CENSUS_BYTES} bytes"
        )
    after = np.fromiter(islice(filter(is_prime, count(x + 1)), r - 1), np.int64)
    weights = q ** np.arange(r, dtype=np.int64 if q**r < 2**62 else object)
    seen = Counter()
    res = np.zeros(0, dtype=np.int64)  # the last r - 1 residues, behind each block
    for block in chain(prime_blocks(x), [after]):
        res = np.concatenate((res, block % q))
        if len(res) >= r:
            windows = np.lib.stride_tricks.sliding_window_view(res, r)
            uniq, cnt = np.unique(windows @ weights, return_counts=True)
            seen.update(dict(zip(uniq.tolist(), cnt.tolist())))
            res = res[len(windows) :]
    rest, digits = np.array(list(seen), dtype=weights.dtype), []
    for _ in range(r):
        digits.append((rest % q).tolist())
        rest //= q
    counts = {k: n for k, n in zip(zip(*digits), seen.values()) if 0 not in k}
    return PatternCensus(x, q, r, counts, sum(counts.values()))


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
