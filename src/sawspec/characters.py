"""Dirichlet character group mod a prime, Gauss sums and the attached L-data.

A ``PrimeContext`` fixes a primitive root g and the discrete-log table, so
character j acts by chi_j(a) = e(j * ind(a) / (q-1)); ``build_context``
memoises the last modulus's one.  Only the odd characters (odd j) enter the
bias sums, so the table's rows hold those alone, one row per odd character:
L(0,chi) (finite sum), L(1,chi) (functional equation), the Gauss sum, and
the Euler-correction factor A_{q,chi} as a truncated series.  Each is a sum
over the cyclic group, evaluated for all odd characters at once by one
half-length FFT: with H = (q-1)/2 and j = 2i + 1,

    sum_{m<q-1} x_m e(jm/(q-1)) = sum_{m<H} (x_m - x_{m+H}) e(m/(q-1)) e(im/H),

and g^H = -1 mod q makes the folded inputs x_m - x_{m+H} explicit.  The
rows are built on first use: only the per-character oracle routes
(``spectrum_point_characters``, ``ck_point(..., "characters")``) read them.

The same reindexing over the group (Rader's, for a transform of prime
length) turns sums over the residues into correlations: for f and h odd
mod q and n < H,

    sum_{a mod q} f(a) h(g^n a) = 2 sum_{m<H} f(g^m) h(g^(m+n)),

a linear correlation of f(g^m), m < H, against h(g^k), k < 2H - 1, which a
real FFT zero-padded to the smallest 5-smooth length >= 2H - 1 computes
with no wrap-around.  The Dedekind spectrum, the truncated C(k) vector and
the table's character sums S(a) all take that form (``_group_correlation``):
summing the A-series over characters gives

    S(k) = pi C_q (q-1) sum_{n <= N, (n,q)=1} a(n) Im s_hat_q(k inv(2n)),

the truncated C(k) route with psi replaced by Im s_hat_q and b(n) by a(n).
A direct sum of S(1) over the a-weights checks that correlation
(``CharacterTable.residual``).  The three vectors are odd in a, and each is
stored as one exactly odd real vector over a = 0..q-1 that
``_odd_over_group`` writes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .foundations import coeff_a_floats, constant_C, factorize

__all__ = [
    "is_prime",
    "primitive_root",
    "PrimeContext",
    "build_context",
    "CharacterTable",
    "build_table",
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


# the largest modulus every O(q) route accepts; MAX_Q < 2^31 also keeps their
# int64 kernels exact (they form h^2 + k^2 + 1 with k <= q, products below q^2)
MAX_Q = 2_000_000


def require_below_cap(q: int, route: str, bytes_per_residue: int) -> None:
    """Raise ResourceLimitError for q > MAX_Q, stating the bytes the route
    would have needed at q."""
    if q > MAX_Q:
        raise ResourceLimitError(
            f"q = {q} exceeds configured cap {MAX_Q} (the {route} needs about "
            f"{bytes_per_residue} bytes per residue, {bytes_per_residue * q} bytes)"
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
    """Prime modulus with power and discrete-log tables.

    ``powers[m] = g^m mod q`` for m in [0, q-2] and ``index`` is its inverse
    permutation (index[0] = -1 as a sentinel).  The inverse of g^m is
    g^(-m mod q-1), so the two tables also give every inverse.
    """

    q: int
    primitive_root: int
    powers: np.ndarray
    index: np.ndarray


def build_context(q: int) -> PrimeContext:
    """The prime context of q, memoised for the last modulus.

    The memo (``functools.lru_cache(maxsize=1)`` on the builder) keeps that
    modulus's ``powers`` and ``index`` alive, 16 bytes per residue, until
    another q evicts them; both arrays are read-only.
    """
    require_odd_prime(q)
    # tracemalloc peak per residue: powers, index and the arange inverting powers
    require_below_cap(q, "prime context", 24)
    # a plain function in front of the memo, so tracers that wrap the
    # package's public functions (perfbench's spans) still see every call
    return _context(q)


@functools.lru_cache(maxsize=1)
def _context(q: int) -> PrimeContext:
    M = q - 1
    g = primitive_root(q)
    # powers by doubling: powers[n:2n] = powers[:n] * g^n, products below q^2
    powers = np.empty(M, dtype=np.int64)
    powers[0] = 1
    n = 1
    while n < M:
        m = min(n, M - n)
        powers[n : n + m] = powers[:m] * pow(g, n, q) % q
        n += m
    index = np.full(q, -1, dtype=np.int64)
    index[powers] = np.arange(M, dtype=np.int64)
    powers.flags.writeable = False
    index.flags.writeable = False
    return PrimeContext(q, g, powers, index)


@dataclass(frozen=True)
class CharacterTable:
    """The character sums S(a) mod q and, built on first use, the per-character
    rows of the (q-1)/2 odd characters.

    ``bias_sums`` is indexed by the residue a = 0..q-1, not by characters:
    S(a) = sum_j conj(chi_j(a)) L(0,chi_j) L(1,chi_j) A_{q,chi_j}, real and
    exactly odd, with S(0) = 0.  ``build_table`` computes it from the
    Dedekind spectrum, not from the rows; ``residual`` is the gap between
    the FFT value of S(1) and its direct sum over the a-weights, on the
    C(k) = S(k)/(q-1) scale, at most 1e-12 max(1, |S(1)|/(q-1)).

    The rows ``l_zero``, ``l_one``, ``gauss`` and ``a_chi`` are computed on
    first access (only the per-character oracle routes read them), each of
    length H = (q-1)/2, row i holding character j = 2i + 1.  Even characters
    are not stored: L(0,chi) vanishes for them, so they never contribute to
    the bias sums.  The conjugate of row i is row H-1-i.  At q ~ 1e6 the
    first access takes two length-H transforms, a tracemalloc peak of about
    61 bytes per residue, and keeps 32.
    """

    context: PrimeContext
    cutoff: int
    bias_sums: np.ndarray
    a_tail_bound: float
    residual: float

    @property
    def q(self) -> int:
        return self.context.q

    @functools.cached_property
    def _l_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(L(0,chi_j), L(1,chi_j), tau(chi_j)) by one half-length transform.

        L(0, chi_j) = -sum_m psi(g^m/q) e(jm/M); psi(g^(m+H)/q) = -psi(g^m/q).
        tau(chi_j) = sum_m e(g^m/q) e(jm/M); e(g^(m+H)/q) = conj(e(g^m/q)).
        Both folded inputs are real up to the factor i of the second, and a
        real input x gives rows with F[H-1-i] = conj(F[i]), so one transform
        of x + iy carries both: F_x = (Z + Z*)/2, F_y = (Z - Z*)/2i with
        Z* = conj(Z[::-1]).  L(1) follows from the functional equation
        L(1,chi_j) = -tau(chi_j) pi i/q L(0, chi_bar_j).
        """
        q = self.q
        low = self.context.powers[: (q - 1) // 2]  # g^(m+H) = q - g^m
        z = _odd_dft(
            2.0 * (low / q - 0.5) + 2j * np.sin((2.0 * math.pi / q) * low),
            _twiddle(q),
        )
        z_rev = np.conj(z[::-1])
        gauss = 0.5 * (z - z_rev)
        # l_zero reuses z, and the del drops z_rev before l_one is made
        l_zero = z
        l_zero += z_rev
        l_zero *= -0.5
        del z_rev
        l_one = -gauss * (1j * math.pi / q) * l_zero[::-1]
        return l_zero, l_one, gauss

    @property
    def l_zero(self) -> np.ndarray:
        return self._l_rows[0]

    @property
    def l_one(self) -> np.ndarray:
        return self._l_rows[1]

    @property
    def gauss(self) -> np.ndarray:
        return self._l_rows[2]

    @functools.cached_property
    def a_chi(self) -> np.ndarray:
        """A_{q,chi_j} = C_q sum_{n <= cutoff, (n,q)=1} a(n) chi_j(2n), one
        half-length transform of the a-weights binned by ind(2n)."""
        ctx, M = self.context, self.q - 1
        weights, e = _weights_by_inverse_2n(ctx, coeff_a_floats(self.cutoff))
        w = np.bincount(-e % M, weights=weights, minlength=M)  # ind(2n) = -e
        c_q, _ = constant_C(excluded_prime=self.q)
        return c_q * _odd_dft(w[: M // 2] - w[M // 2 :], _twiddle(self.q))

    def _residue(self, a: int) -> int:
        """a mod q; ValueError for a = 0 mod q."""
        if a % self.q == 0:
            raise ValueError(f"a = {a} must be nonzero mod q = {self.q}")
        return a % self.q

    def chi_bar(self, a: int) -> np.ndarray:
        """conj(chi_j(a)) for every row, a coprime to q."""
        M = self.q - 1
        j = np.arange(1, M, 2)
        ind = int(self.context.index[self._residue(a)])
        return np.exp((-2j * math.pi / M) * (j * ind % M))

    def bias_sum(self, a: int) -> float:
        """S(a), read from ``bias_sums``, for a coprime to q."""
        return float(self.bias_sums[self._residue(a)])


def _weights_by_inverse_2n(ctx: PrimeContext, coeffs: np.ndarray):
    """The nonzero coeffs[n], n coprime to q, and e with inv(2n) = g^e mod q
    for each (inv(g^m) = g^(-m))."""
    q = ctx.q
    ns = np.nonzero(coeffs)[0]
    ns = ns[ns % q != 0]
    return coeffs[ns], -ctx.index[(2 * ns) % q] % (q - 1)


def _odd_over_group(ctx: PrimeContext, half: np.ndarray, zero: float) -> np.ndarray:
    """f(a), a = 0..q-1: f(0) = zero, f(g^n) = half[n], f(g^(n+H)) = -half[n]."""
    values = np.empty(ctx.q)
    values[0] = zero
    # one gather through the discrete log: g^m takes half[m] for m < H and
    # -half[m - H] above
    values[1:] = np.concatenate((half, -half))[ctx.index[1:]]
    return values


def _twiddle(q: int) -> np.ndarray:
    """e(m/(q-1)) for m < (q-1)/2."""
    H = (q - 1) // 2
    return np.exp((1j * math.pi / H) * np.arange(H))


def _odd_dft(folded: np.ndarray, twiddle: np.ndarray) -> np.ndarray:
    """Row i is sum_m x_m e((2i+1)m/(q-1)), given folded[m] = x_m - x_{m+H}
    and twiddle[m] = e(m/(q-1))."""
    return np.fft.ifft(folded * twiddle) * len(folded)


def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT factors directly."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _group_correlation(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """c_n = sum_{m<H} u_m v_{m+n} for n < H = len(u), v of length >= 2H - 1.

    One real cyclic correlation at the 5-smooth length L >= 2H - 1: the
    indices m + n <= 2H - 2 stay below L, so the zero padding leaves no
    wrap-around term.
    """
    H = len(u)
    L = _smooth_length(2 * H - 1)
    spectrum = np.fft.rfft(v[: 2 * H - 1], L) * np.conj(np.fft.rfft(u, L))
    return np.fft.irfft(spectrum, L)[:H]


# tracemalloc peak per residue of build_table at q ~ 1e6 with the default
# a-series cutoff and no spectrum memoised: that of the spectrum (61, which
# leaves the context and the spectrum memoised, 20), then the character sums
# (8), the binned weights and the correlation's inputs and real FFT buffers
_TABLE_BYTES_PER_RESIDUE = 66


def build_table(q: int, a_series_cutoff: int = 100_000) -> CharacterTable:
    """Build the character table for the prime q.

    The character sums come from the Dedekind spectrum: with
    A_{q,chi} = C_q sum_{n <= N, (n,q)=1} a(n) chi(2n), N = ``a_series_cutoff``,
    and sum_{chi odd} chi_bar(t) L(0,chi) L(1,chi) = pi (q-1) Im s_hat_q(t)
    (``spectrum_point_characters``),

        S(k) = pi C_q (q-1) sum_{n <= N, (n,q)=1} a(n) Im s_hat_q(k inv(2n)).

    Over the group, k = g^i, the weights a(n) binned by e = ind(inv(2n))
    into W and Im s_hat_q(g^(e+H)) = -Im s_hat_q(g^e) fold that to

        S(g^i) = pi C_q (q-1) sum_{e<H} (W_e - W_{e+H}) Im s_hat_q(g^(i+e)),

    one real correlation by FFT at the smallest 5-smooth length >= q - 2, the
    same form as the truncated C(k) route.  S(1) is also summed directly over
    the a-weights, and a gap past the ``residual`` bound raises
    ArithmeticError.  The a-series tail bound is recorded.  The spectrum and
    the context are the memoised ones ``spectrum_all`` reads.
    """
    require_below_cap(q, "character table", _TABLE_BYTES_PER_RESIDUE)
    from .dedekind import _spectrum_half  # dedekind imports this module

    ctx, spectrum = _spectrum_half(q)
    H = (q - 1) // 2
    weights, e = _weights_by_inverse_2n(ctx, coeff_a_floats(a_series_cutoff))
    W = np.bincount(e, weights=weights, minlength=q - 1)
    c_q, _ = constant_C(excluded_prime=q)
    scale = math.pi * c_q * (q - 1)
    group = np.concatenate((spectrum, -spectrum))  # Im s_hat_q(g^k), k < q - 1
    half = scale * _group_correlation(W[:H] - W[H:], group)
    del W
    direct = scale * float(np.dot(weights, group[e]))
    residual = abs(direct - half[0]) / (q - 1)
    if residual > 1e-12 * max(1.0, abs(half[0]) / (q - 1)):
        raise ArithmeticError(f"character sum S(1) residual {residual:g} above budget")
    tail_bound = 2.0 * a_series_cutoff ** (-0.45)
    return CharacterTable(
        ctx, a_series_cutoff, _odd_over_group(ctx, half, 0.0), tail_bound, residual
    )
