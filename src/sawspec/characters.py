"""Dirichlet character group mod a prime, Gauss sums and the attached L-data.

A ``PrimeContext`` fixes a primitive root g = ``powers[1]`` and the int32
discrete-log table, so character j acts by chi_j(a) = e(j * ind(a) / (q-1))
and inv(g^m) = g^(-m) (``PrimeContext.inverse``); ``build_context`` memoises
the last modulus's one.  Only the odd characters (odd j) enter the bias
sums, so the table's rows hold those alone, one row per odd character:
L(0,chi) (finite sum), L(1,chi) (functional equation), the Gauss sum, and
the Euler-correction factor A_{q,chi} as its a-series over n <=
``A_SERIES_CUTOFF``.  Each is a sum over the cyclic group, evaluated for all
odd characters at once by one half-length FFT: with H = (q-1)/2, j = 2i + 1,

    sum_{m<q-1} x_m e(jm/(q-1)) = sum_{m<H} (x_m - x_{m+H}) e(m/(q-1)) e(im/H),

and g^H = -1 mod q makes the folded inputs x_m - x_{m+H} explicit.  The
rows are built on first use: only the per-character oracle routes
(``spectrum_point_characters``, ``ck_point(..., "characters")``) read them.

The same reindexing over the group (Rader's, for a transform of prime
length) makes a multiplicative correlation T(k) = sum_a f(a) h(ka), h odd
mod q, a linear one: with k = g^n, n < H,

    T(g^n) = sum_{m<H} (f(g^m) - f(g^(m+H))) h(g^(m+n)),

one real FFT zero-padded to a 5-smooth length >= 2H - 1, and T(-k) = -T(k).
``_odd_correlation`` computes it from the fold of f as its group half
h_n = T(g^n), n < H, for the Dedekind spectrum (f = s_q, h = sin), the
truncated C(k) (f the b-weights binned at inv(2n), h = psi) and the table's
character sums S(k) (f the a-weights binned at inv(2n), h = Im s_hat_q;
``build_table``).  Both series over inv(2n), and A_{q,chi}, read one
binning: ``_inverse_2n_terms`` gives the terms with the exponent e of
inv(2n) = g^e, and ``_fold`` bins them by e.  The halves are what the
spectrum and the table keep, read-only (4 bytes per residue each);
``_odd_over_group`` only reads one to write the exactly odd residue vector,
which a caller scales in place; ``_odd_at`` reads a half at any exponents.
"""

from __future__ import annotations

import ctypes
import functools
import math
import mmap
import os
import weakref
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


# the largest modulus every O(q) route accepts; MAX_Q < 2^31 also keeps the int32
# tables and int64 kernels exact (products below q^2), and 2 MAX_Q^2 + 1 < 2^53 the
# Dedekind descent's float64 lanes (they form h^2 + k^2 + 1 with k <= q)
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
    permutation (index[0] = -1 as a sentinel), both int32.  The inverse of g^m
    is g^(-m mod q-1), so the two tables also give every inverse.
    """

    q: int
    powers: np.ndarray
    index: np.ndarray

    def inverse(self, a):
        """inv(a) mod q as int64 for residues a (int or int array) coprime to q."""
        return self.powers[-self.index[a] % (self.q - 1)].astype(np.int64)


def _memo_last(build):
    """``build`` memoised for the last modulus, dropped before the next is built."""
    memo = {}

    def memoised(q: int):
        if q not in memo:
            memo.clear()
            memo[q] = build(q)
        return memo[q]

    return memoised


def build_context(q: int) -> PrimeContext:
    """The prime context of q, memoised for the last modulus.

    The memo keeps that modulus's int32 ``powers`` and ``index`` (8 bytes per
    residue) until the next modulus is built; both arrays are read-only and
    each is mapped on its own (``_mapped_zeros``).
    """
    require_odd_prime(q)
    # tracemalloc peak per residue: powers, index and the arange inverting powers (12.1)
    require_below_cap(q, "prime context", 13)
    # a plain function in front of the memo, so tracers that wrap the
    # package's public functions (perfbench's spans) still see every call
    return _context(q)


# glibc's malloc_trim(pad); None where the C library has no such call
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None) if os.name == "posix" else None
if _malloc_trim is not None:
    _malloc_trim.argtypes = (ctypes.c_size_t,)


def _release_free_heap() -> None:
    """Give the free pages of malloc's heap back to the system, where the C
    library can (see ``_mapped_zeros``)."""
    if _malloc_trim is not None:
        _malloc_trim(0)


_trace_track = ctypes.pythonapi.PyTraceMalloc_Track
_trace_track.argtypes = (ctypes.c_uint, ctypes.c_size_t, ctypes.c_size_t)
_trace_untrack = ctypes.pythonapi.PyTraceMalloc_Untrack
_trace_untrack.argtypes = (ctypes.c_uint, ctypes.c_size_t)


def _mapped_zeros(n: int, dtype) -> np.ndarray:
    """n zeros of ``dtype`` in a private anonymous mapping of their own,
    unmapped when the array is freed.

    For the O(q) arrays that outlive the transform buffers allocated around
    them: the prime context's tables and ``_odd_correlation``'s result (the
    spectrum's memoised half, the table's sums).  In malloc's heap such an
    array sits between freed buffers, which later buffers then do not fit,
    and the heap grows past them while the freed pages stay resident.  The
    other half of the remedy is in ``_odd_correlation``, whose buffers are
    the largest of a pipeline: it gives the heap's free pages back before
    it allocates them and after it frees them (``_release_free_heap``).
    Over 27 forked passes of two primes q ~ 1e6 each, the peak RSS read
    79.4-89.3 MB with neither, 78.2-87.0 MB with the mappings alone,
    75.4-84.4 MB with the trims alone, and 75.4-77.5 MB with both.

    The mapping is reported to tracemalloc in numpy's domain, as numpy
    reports the arrays it allocates, so traced peaks and the stated bytes
    per residue count it."""
    nbytes = n * np.dtype(dtype).itemsize
    buf = mmap.mmap(-1, nbytes, access=mmap.ACCESS_COPY)
    values = np.frombuffer(buf, dtype)
    domain, address = np.lib.tracemalloc_domain, values.ctypes.data
    _trace_track(domain, address, nbytes)
    weakref.finalize(buf, _trace_untrack, domain, address)
    return values


@_memo_last
def _context(q: int) -> PrimeContext:
    M = q - 1
    g = primitive_root(q)
    # powers by doubling: powers[n:2n] = powers[:n] * g^n, products below q^2 in int64
    powers = _mapped_zeros(M, np.int32)
    powers[0] = 1
    n = 1
    while n < M:
        m = min(n, M - n)
        powers[n : n + m] = np.multiply(powers[:m], pow(g, n, q), dtype=np.int64) % q
        n += m
    index = _mapped_zeros(q, np.int32)
    index[0] = -1
    index[powers] = np.arange(M, dtype=np.int32)
    powers.flags.writeable = False
    index.flags.writeable = False
    return PrimeContext(q, powers, index)


@dataclass(frozen=True)
class CharacterTable:
    """The character sums S(a) mod q as their group half and, built on first
    use, the per-character rows of the (q-1)/2 odd characters.

    S(a) = sum_j conj(chi_j(a)) L(0,chi_j) L(1,chi_j) A_{q,chi_j} is real and
    exactly odd, with S(0) = 0, so ``half`` holds S(g^n) for n < H = (q-1)/2,
    read-only (S(g^(n+H)) = -S(g^n)); ``c2_pair`` reads it through the
    discrete log (``_odd_at``).  Its a-series runs to n <= ``cutoff``.
    ``build_table`` computes it from the Dedekind spectrum, not from the
    rows; ``residual`` is the gap between the FFT value of S(1) and its
    direct sum over the a-weights, on the C(k) = S(k)/(q-1) scale, at most
    1e-12 max(1, |S(1)|/(q-1)).

    The rows ``l_zero``, ``l_one``, ``gauss`` and ``a_chi`` are computed on
    first access (only the per-character oracle routes read them), each of
    length H, row i holding character j = 2i + 1.  Even characters
    are not stored: L(0,chi) vanishes for them, so they never contribute to
    the bias sums.  The conjugate of row i is row H-1-i.  At q ~ 1e6 the
    first access takes two length-H transforms, a tracemalloc peak of about
    52 bytes per residue, and keeps 32.
    """

    context: PrimeContext
    cutoff: int
    half: np.ndarray
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
        half-length transform of the fold of the a-weights binned by the
        exponent e of inv(2n) = g^e: chi_j(2n) = conj(e(je/(q-1)))."""
        c_q, _ = constant_C(excluded_prime=self.q)
        u = _fold(self.q, *_inverse_2n_terms(self.context, coeff_a_floats, self.cutoff))
        return c_q * np.conj(_odd_dft(u, _twiddle(self.q)))

    def chi_bar(self, a: int) -> np.ndarray:
        """conj(chi_j(a)) for every row; ValueError for a = 0 mod q."""
        if a % self.q == 0:
            raise ValueError(f"a = {a} must be nonzero mod q = {self.q}")
        M = self.q - 1
        j = np.arange(1, M, 2)
        ind = int(self.context.index[a % self.q])
        return np.exp((-2j * math.pi / M) * (j * ind % M))


def _odd_over_group(ctx: PrimeContext, half: np.ndarray, zero: float) -> np.ndarray:
    """f(a), a = 0..q-1: f(0) = zero, f(g^n) = half[n], f(g^(n+H)) = -half[n]:
    two scatters through ``powers``, a negation between; ``half`` is only read."""
    H = len(half)
    values = np.empty(ctx.q)
    values[ctx.powers[H:]] = half
    np.negative(values, out=values)
    values[ctx.powers[:H]] = half
    values[0] = zero
    return values


def _odd_at(half: np.ndarray, e: np.ndarray) -> np.ndarray:
    """f(g^e) for an array of exponents e < 2H of the odd f whose group half
    is half[n] = f(g^n), n < H = len(half): half[e], or -half[e - H]."""
    H = len(half)
    values = half[e % H]
    return np.negative(values, out=values, where=e >= H)


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


def _inverse_2n_terms(ctx: PrimeContext, sieve, N: int):
    """The terms of a series over inv(2n) mod q: the nonzero coefficients
    c(n), n <= N coprime to q, of the table ``sieve(N)`` (``coeff_a_floats``
    or ``coeff_b_floats``), and the int32 exponent e = -ind(2n) mod (q-1) of
    inv(2n) = g^e for each.  The table is freed before the exponents are
    built, so its 8 bytes per entry never stand beside them."""
    coeffs = sieve(N)
    ns = np.nonzero(coeffs)[0]
    ns = ns[ns % ctx.q != 0]
    weights = coeffs[ns]
    del coeffs
    np.multiply(ns, 2, out=ns)
    return weights, -ctx.index[np.remainder(ns, ctx.q, out=ns)] % (ctx.q - 1)


def _fold(q: int, weights: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The fold u_e = W_e - W_(e+H), e < H = (q-1)/2, of the weights binned
    by their exponents e < q - 1."""
    W = np.bincount(e, weights, minlength=q - 1)
    return W[: len(W) // 2] - W[len(W) // 2 :]


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """sum_i x_i y_i by numpy's own loop, not BLAS.  OpenBLAS hands a dot of
    more than 10 000 terms to its thread pool: with two threads on a 2-vCPU
    x86-64 box, a dot at q ~ 1e6 took 8-12 ms against 0.4-1 ms on one
    thread, and the work after it ran up to twice as slow while the pool's
    worker spun.  The Parseval check and the S(1) residual need no
    particular order of the sum."""
    return float(np.einsum("i,i->", x, y))


def _odd_correlation(ctx: PrimeContext, u: np.ndarray, h, scale: float) -> np.ndarray:
    """scale * T(g^n), n < H = (q-1)/2, the group half of T(k) = sum_a f(a)
    h(ka), which is exactly odd in k; u is the fold u_m = f(g^m) -
    f(g^(m+H)), m < H, and h(a, out) writes h (odd mod q) at the residues
    a = g^j, j < 2H - 1, into out.

    T(g^n) = sum_{m<H} u_m h(g^(m+n)) for n < H, one real correlation at the
    5-smooth length L >= 2H - 1; m + n <= 2H - 2 < L leaves no wrap-around
    term.  h fills the zero-padded buffer, transformed before u; a u passed
    as a temporary is freed after its transform.  The result is mapped on
    its own, and the heap's free pages go back to the system before the
    buffers are allocated and after they are freed (see ``_mapped_zeros``).
    """
    _release_free_heap()
    p, H = ctx.powers, len(u)
    L = _smooth_length(2 * H - 1)
    padded = np.zeros(L)
    h(p[: 2 * H - 1], padded[: 2 * H - 1])
    product = np.fft.rfft(padded)
    del padded
    u_hat = np.fft.rfft(u, L)
    del u
    product *= np.conjugate(u_hat, out=u_hat)
    del u_hat
    full = np.fft.irfft(product, L)
    del product
    half = np.multiply(full[:H], scale, out=_mapped_zeros(H, np.float64))
    del full
    _release_free_heap()
    return half


# tracemalloc peak per residue of build_table at q ~ 1e6 with nothing memoised
# (32.2): the context and spectrum half it memoises (12) and h's transform beside
# the fold and its transform (20); the a-series terms (1.1) are gone by then
_TABLE_BYTES_PER_RESIDUE = 34

# the a-series cutoff N of A_{q,chi}: the terms n <= N enter the table
A_SERIES_CUTOFF = 100_000


def build_table(q: int) -> CharacterTable:
    """Build the character table for the prime q.

    The character sums come from the Dedekind spectrum: with
    A_{q,chi} = C_q sum_{n <= N, (n,q)=1} a(n) chi(2n), N = ``A_SERIES_CUTOFF``,
    and sum_{chi odd} chi_bar(t) L(0,chi) L(1,chi) = pi (q-1) Im s_hat_q(t)
    (``spectrum_point_characters``),

        S(k) = pi C_q (q-1) sum_{n <= N, (n,q)=1} a(n) Im s_hat_q(k inv(2n)),

    one ``_odd_correlation`` of the a-weights binned by the exponent e of
    inv(2n) = g^e (``_inverse_2n_terms``, ``_fold``) with the memoised
    spectrum half that ``spectrum_all`` returns, whose kernel
    Im s_hat_q(g^j), j < 2H - 1, is the two slices [half, -half[:H-1]].
    S(1) = S(g^0) is first summed directly over the a-weights, reading the
    half at the exponents e; the terms are then folded and dropped before
    the correlation, and a gap past the ``residual`` bound raises
    ArithmeticError.  The a-series tail n > N carries no bound yet.
    """
    require_below_cap(q, "character table", _TABLE_BYTES_PER_RESIDUE)
    from .dedekind import spectrum_all  # dedekind imports this module

    spectrum = spectrum_all(q)
    ctx, half = spectrum.context, spectrum.half
    H = len(half)

    def kernel(a, out):
        out[:H] = half
        np.negative(half[: H - 1], out=out[H:])

    c_q, _ = constant_C(excluded_prime=q)
    scale = math.pi * c_q * (q - 1)
    weights, e = _inverse_2n_terms(ctx, coeff_a_floats, A_SERIES_CUTOFF)
    # S(1) = S(g^0), summed before the correlation so that the terms are gone by then
    direct = scale * _dot(weights, _odd_at(half, e))
    u = _fold(q, weights, e)
    del weights, e
    sums = _odd_correlation(ctx, u, kernel, scale)
    residual = abs(direct - sums[0]) / (q - 1)
    if residual > 1e-12 * max(1.0, abs(sums[0]) / (q - 1)):
        raise ArithmeticError(f"character sum S(1) residual {residual:g} above budget")
    sums.flags.writeable = False
    return CharacterTable(ctx, A_SERIES_CUTOFF, sums, residual)
