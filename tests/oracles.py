"""Reference forms that the tests compare the library against: the scalar
sawtooth, the per-n exact coefficients a(n) and b(n), by factorization, the
second-moment pair sum one divisor at a time, and the extreme report.
"""

import math
from fractions import Fraction

import numpy as np

from sawspec.distribution import DEFAULT_SCALES, extremes
from sawspec.foundations import factorize, jordan_table


def psi(x: float) -> float:
    """Centered sawtooth of one float: {x} - 1/2 off integers, 0 at
    integers, from |x| with the sign restored afterwards."""
    if x == math.floor(x):
        return 0.0
    sign = 1.0
    if x < 0.0:
        x = -x
        sign = -1.0
    return sign * (x - math.floor(x) - 0.5)


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
    val = Fraction(1)
    for p, e in factorize(n):
        val *= _a_prime_power(p, e)
    return val


def coeff_b(n: int) -> Fraction:
    """Dirichlet convolution b = a * (1/id): zero unless n is odd and
    squarefree, with b(p) = 1/(p-2) on odd primes."""
    val = Fraction(1)
    for p, e in factorize(n):
        if p == 2 or e > 1:
            return Fraction(0)
        val /= p - 2
    return val


def second_moment_loop(w: np.ndarray) -> float:
    """sum_{d <= B} J_2(d) t(d)^2 / 12, t(d) = sum_k w(dk)/(dk), for the
    weights w[0..B]: one np.sum per divisor d, in increasing d."""
    B = len(w) - 1
    n = np.arange(B + 1, dtype=float)
    n[0] = 1.0
    f = w / n
    J = jordan_table(B, 2).astype(float)
    total = 0.0
    for d in range(1, B + 1):
        t = float(np.sum(f[d::d]))
        if t:
            total += J[d] * t * t
    return total / 12.0


def extreme_report(dist, q: int) -> dict:
    """Extremes plus the ratio max / ((e^gamma/2) log log q), report only."""
    mn, amn, mx, amx = extremes(dist)
    denom = DEFAULT_SCALES["C"] * math.log(math.log(q))
    return {
        "min": mn,
        "argmin": amn,
        "max": mx,
        "argmax": amx,
        "max_over_loglog_scale": mx / denom,
    }
