"""Reference forms that the tests compare the library against: the scalar
sawtooth, the per-n exact coefficients a(n) and b(n), by factorization, the
second-moment pair sum one divisor at a time, the extremes and their
report, the distribution statistics one scalar x at a time, the
single-prime reduction by factorization, the correlation integral with
every coefficient array over the whole period, the C model's moment one
Fraction per unit interval and modulus, the multiplicative tables from one
whole-table sieve, the totient error's samples as one whole-length
expression and its moments from a whole prefix table (on the fixed block
grid, and in 2^19-interval chunks at 8 nodes from m = 128), the
Freedman-Diaconis histogram by ``np.histogram(bins="fd")``, the
Dedekind spectrum from the cotangent form, with no Dedekind sum, the
truncated spectrum at one t and one truncated C(k), each summed term by
term, and the inverses mod a prime from the group tables.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from sawspec.characters import _odd_correlation, _odd_over_group, build_context
from sawspec.distribution import DEFAULT_SCALES
from sawspec.foundations import (
    coeff_b_denominators,
    coeff_b_floats,
    constant_C,
    factorize,
    jordan_table,
    prime_array,
)
from sawspec.phi_error import _gauss_legendre_01, _node_count


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


def extremes(dist) -> tuple[float, int, float, int]:
    """(min, argmin, max, argmax); the args are residues k for a
    residue-indexed dataset, else positions."""
    i_min = int(np.argmin(dist.samples))
    i_max = int(np.argmax(dist.samples))
    offset = int(dist.residue_indexed)  # residue k sits in position k - 1
    return (
        float(dist.samples[i_min]),
        i_min + offset,
        float(dist.samples[i_max]),
        i_max + offset,
    )


def ecdf_loop(dist, xs) -> list:
    """The right-continuous ECDF at scale * x, one searchsorted per scalar
    x of ``xs`` on one sorted copy of the samples."""
    s = np.sort(dist.samples)
    return [np.searchsorted(s, dist.scale * x, side="right") / dist.n for x in xs]


def tail_loop(dist, xs) -> tuple[list, list]:
    """(upper, lower) tail fractions, >= scale * x and <= -scale * x, one
    searchsorted per scalar x and side."""
    s, n = np.sort(dist.samples), dist.n
    upper = [(n - np.searchsorted(s, dist.scale * x, side="left")) / n for x in xs]
    lower = [np.searchsorted(s, -dist.scale * x, side="right") / n for x in xs]
    return upper, lower


def symmetry_loop(dist, xs) -> float:
    """max over x of |ecdf(x) + ecdf(-x) - 1|, two scalar ECDFs per x."""
    F = ecdf_loop(dist, [v for x in xs for v in (x, -x)])
    return max(abs(F[i] + F[i + 1] - 1.0) for i in range(0, len(F), 2))


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


def reduce_correlation_by_factors(moduli) -> tuple[tuple[int, ...], Fraction]:
    """(sorted reduced moduli, extracted scalar) by factorization: divide
    p^e out of the one modulus a prime p divides, for every such p, with
    one Fraction(1, p^e) per prime."""
    mods = [int(n) for n in moduli]
    factored = [dict(factorize(n)) for n in mods]
    counts: dict[int, int] = {}
    for f in factored:
        for p in f:
            counts[p] = counts.get(p, 0) + 1
    scalar = Fraction(1)
    for i, f in enumerate(factored):
        for p, e in f.items():
            if counts[p] == 1:
                mods[i] //= p**e
                scalar *= Fraction(1, p**e)
    return tuple(sorted(mods)), scalar


def integrate_whole_period(moduli: tuple[int, ...], period: int) -> Fraction:
    """The mean of prod psi(x/n_j) over [0, period) with every coefficient
    array over the whole period, in Python integers, so no dtype bound is
    trusted: the oracle for the blocked ``correlations._integrate_reduced``."""
    ell = len(moduli)
    weight_lcm = math.lcm(*range(1, ell + 2))
    weights = [weight_lcm // (i + 1) for i in range(ell + 1)]
    denom = weight_lcm * period
    for n in moduli:
        denom *= 2 * n
    dtype = object
    m = np.arange(period, dtype=dtype)
    coeffs = [np.ones(period, dtype=dtype)]
    for n in moduli:
        e = 2 * (m % n) - n
        nxt = [np.zeros(period, dtype=dtype) for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            nxt[i] += c * e
            nxt[i + 1] += 2 * c
        coeffs = nxt
    num = sum(int(np.sum(c)) * w for c, w in zip(coeffs, weights))
    return Fraction(num, denom)


def model_moment_loop(ell: int, B: int) -> Fraction:
    """(1/L) integral of (sum_{n<=B} b(n) psi(x/n))^ell over the period L,
    the product of the odd primes <= B: one Fraction per (m, n) and unit
    interval [m, m + 1), on which the model is base + slope t."""
    L = math.prod(prime_array(B)[1:].tolist())
    d = coeff_b_denominators(B)
    b = [(n, Fraction(1, int(d[n]))) for n in np.flatnonzero(d).tolist()]
    slope = sum(bn / n for n, bn in b)
    half = Fraction(1, 2)
    total = Fraction(0)
    for m in range(L):
        base = sum(bn * (Fraction(m % n, n) - half) for n, bn in b)
        total += ((base + slope) ** (ell + 1) - base ** (ell + 1)) / (ell + 1)
    return total / slope / L


_P = 3.0 / math.pi**2


def rtilde_samples_whole(y: int, prefix: np.ndarray) -> np.ndarray:
    """Rt at m + 1/2, m = 0..y-1, as one expression over whole-length
    arrays, from the whole prefix table."""
    u = np.arange(y, dtype=float) + 0.5
    return prefix[:y].astype(float) / u - _P * u


def _chunk_interval_sum(prefix: np.ndarray, lo: int, hi: int, ell_max: int) -> np.ndarray:
    m_int = np.arange(lo, hi, dtype=np.int64)
    m = m_int.astype(float)
    ld = np.longdouble
    d0 = np.asarray(
        prefix[lo:hi].astype(ld) - ld(_P) * m_int.astype(ld) ** 2, dtype=float
    )
    d1 = -2.0 * _P * m
    nodes, weights = np.polynomial.legendre.leggauss(64 if lo < 128 else 8)
    sums = np.zeros(ell_max)
    for v, w in zip((nodes + 1.0) / 2.0, weights / 2.0):
        r = (d0 + v * (d1 - _P * v)) / (m + v)
        power = np.ones_like(r)
        for k in range(ell_max):
            power *= r
            sums[k] += w * np.sum(power)
    return sums


def rtilde_moments_chunked(y: int, ell_max: int, prefix: np.ndarray) -> list[float]:
    """(1/y) int_0^y Rt^ell, ell = 1..ell_max, from the v-form at 64
    Gauss-Legendre nodes per interval below m = 128 and 8 from there, the
    intervals summed in chunks of 2^19 and the chunk sums by fsum, from the
    whole prefix table."""
    parts = [[(-_P) ** ell / (ell + 1.0)] for ell in range(1, ell_max + 1)]
    lo = 1
    while lo < y:
        hi = min(lo + (1 << 19), y)
        if lo < 128 < hi:
            hi = 128
        for part, s in zip(parts, _chunk_interval_sum(prefix, lo, hi, ell_max).tolist()):
            part.append(s)
        lo = hi
    return [math.fsum(part) / y for part in parts]


def _sieve_whole(limit: int, dtype, prime_power, large_prime) -> np.ndarray:
    """The multiplicative f on [0, limit] as one table: from table = 1, for
    p <= max(2, sqrt(limit)) then p^e <= limit, table[p^e::p^e] =
    prime_power(table[p^e::p^e], p, e); every other n is s P with one prime
    P > sqrt(limit), s < sqrt(limit) final, table[s P] = large_prime(table[s], P)."""
    primes = prime_array(limit)
    table = np.ones(limit + 1, dtype=dtype)
    table[:1] = 0
    root = max(math.isqrt(limit), 2)
    cut = int(np.searchsorted(primes, root, side="right"))
    for p in primes[:cut].tolist():
        pk, e = p, 1
        while pk <= limit:
            table[pk::pk] = prime_power(table[pk::pk], p, e)
            pk, e = pk * p, e + 1
    large = primes[cut:]
    for s in range(1, limit // (root + 1) + 1):
        if table[s]:
            P = large[: np.searchsorted(large, limit // s, side="right")]
            table[s * P] = large_prime(table[s], P)
    return table


def _a_step(v, p, e):
    if e == 1:
        return v * (-0.5 if p == 2 else 2.0 / (p * (p - 2)))
    return v * -0.5 if e == 2 and p > 2 else 0.0


# name -> (dtype, prime_power, large_prime) of each table, as the whole-table
# sieve filled it
WHOLE_TABLE_STEPS = {
    "jordan_1": (np.int64, lambda v, p, e: v * (p - 1 if e == 1 else p), lambda x, P: x * (P - 1)),
    "jordan_2": (
        np.int64,
        lambda v, p, e: v * (p**2 - 1 if e == 1 else p**2),
        lambda x, P: x * (P**2 - 1),
    ),
    "mobius": (np.int8, lambda v, p, e: -v if e == 1 else 0, lambda x, P: -x),
    "coeff_a": (np.float64, _a_step, lambda x, P: x * (2.0 / (P * (P - 2)))),
    "coeff_b": (
        np.float64,
        lambda v, p, e: v / (p - 2) if e == 1 and p > 2 else 0.0,
        lambda x, P: x / (P - 2),
    ),
    "coeff_d": (
        np.int64,
        lambda v, p, e: v * (p - 2) if e == 1 and p > 2 else 0,
        lambda x, P: x * (P - 2),
    ),
}


def whole_table(name: str, limit: int) -> np.ndarray:
    """The table ``name`` of WHOLE_TABLE_STEPS on [0, limit] by the
    whole-table sieve."""
    return _sieve_whole(limit, *WHOLE_TABLE_STEPS[name])


def rtilde_moments_whole(y: int, ell_max: int, prefix: np.ndarray) -> list[float]:
    """(1/y) int_0^y Rt^ell, ell = 1..ell_max, from the whole int64 prefix
    table: each block of the grid 1, 128, k 2^15 integrated by one
    whole-block expression at ``_node_count`` nodes, the block sums by fsum."""
    parts = [[(-_P) ** ell / (ell + 1.0)] for ell in range(1, ell_max + 1)]
    edges = [e for e in (1, 128, *range(1 << 15, y, 1 << 15)) if e < y] + [y]
    ld = np.longdouble
    for lo, hi in itertools.pairwise(edges):
        m_int = np.arange(lo, hi, dtype=np.int64)
        m = m_int.astype(float)
        d0 = np.asarray(prefix[lo:hi].astype(ld) - ld(_P) * m_int.astype(ld) ** 2, dtype=float)
        d1 = -2.0 * _P * m
        sums = np.zeros(ell_max)
        for v, w in zip(*_gauss_legendre_01(_node_count(lo))):
            r = (d0 + v * (d1 - _P * v)) / (m + v)
            power = np.ones_like(r)
            for k in range(ell_max):
                power *= r
                sums[k] += w * np.sum(power)
        for part, s in zip(parts, sums.tolist()):
            part.append(s)
    return [math.fsum(part) / y for part in parts]


def histogram_fd(samples: np.ndarray):
    """Counts and edges of the Freedman-Diaconis histogram, by numpy."""
    return np.histogram(samples, bins="fd")


def spectrum_by_cotangents(q: int) -> np.ndarray:
    """Im s_hat_q(t), t = 0..q-1, with no Dedekind sum.  The cotangent form
    s(a, q) = (1/4q) sum_{0<j<q} cot(pi j/q) cot(pi a j/q) (Rademacher and
    Grosswald, *Dedekind Sums*, 1972) and sum_{0<b<q} cot(pi b/q)
    sin(2 pi b r/q) = q - 2r for 0 < r < q give

        Im s_hat_q(t) = -(1/2q) sum_{0<j<q} cot(pi j/q) psi(t inv(j)/q),

    one ``_odd_correlation`` over the group of the odd f(a) = cot(pi inv(a)/q),
    whose fold at a = g^m is 2 cot(pi inv(g^m)/q), with the odd psi(a/q),
    its half scattered to the residues.  cot(pi j/q) reaches q/pi at j = 1,
    so the roundoff grows like q."""
    ctx = build_context(q)
    u = 2.0 / np.tan((math.pi / q) * inverse(ctx, ctx.powers[: (q - 1) // 2]))
    half = _odd_correlation(
        ctx, u, lambda a, out: np.subtract(np.divide(a, q, out=out), 0.5, out=out),
        -0.5 / q,
    )
    return _odd_over_group(ctx, half, 0.0)


def inverse(ctx, a):
    """inv(a) mod q as int64 for residues a (int or int array) coprime to q:
    the inverse of g^m is g^(-m mod q-1)."""
    return ctx.powers[-ctx.index[a] % (ctx.q - 1)].astype(np.int64)


_TRUNCATED_CHUNK = 1 << 22  # terms n per array step in spectrum_point_truncated


def spectrum_point_truncated(q: int, t: int, x: float) -> complex:
    """The truncated series (1/(pi i)) sum_{n<=x, (n,q)=1} psi(t inv(n)/q)/n
    at one t, summed in chunks of n; the per-point reference of
    ``spectrum_truncated``.  t is reduced mod q, so t * inv(n) < q^2 cannot
    wrap around int64."""
    ctx = build_context(q)
    t %= q
    if t == 0:
        raise ValueError("t must be coprime to q")
    total = 0.0
    top = int(x)
    for lo in range(1, top + 1, _TRUNCATED_CHUNK):
        n = np.arange(lo, min(lo + _TRUNCATED_CHUNK, top + 1), dtype=np.int64)
        nm = n % q
        keep = nm != 0
        n = n[keep]
        r = (t * inverse(ctx, nm[keep])) % q
        total += float(np.sum((r / q - 0.5) / n))
    # 1/(pi i) = -i/pi, so the value is purely imaginary by construction
    return complex(0.0, -total / math.pi)


def ck_point_truncated(q: int, k: int) -> float:
    """C(k) by the truncated series -C_q sum_{n <= N, (n,q)=1} b(n)
    psi(k inv(2n)/q), N = max(1000, q), summed directly at k and q - k and
    antisymmetrized over k <-> q-k, so oddness is exact.  The prime check
    and the cap come first, from the prime context; the inverses are int64,
    so k inv(2n) < q^2 does not wrap around."""
    ctx = build_context(q)
    if k % q == 0:
        raise ValueError("k must be nonzero mod q")
    c_q, _ = constant_C(excluded_prime=q)
    b = coeff_b_floats(max(1000, q))
    ns = np.nonzero(b)[0]
    ns = ns[ns % q != 0]
    weights, inv2n = b[ns], inverse(ctx, 2 * ns % q)

    def raw(kk: int) -> float:
        return -c_q * float(np.sum(weights * ((kk * inv2n) % q / q - 0.5)))

    return 0.5 * (raw(k % q) - raw(q - k % q))
