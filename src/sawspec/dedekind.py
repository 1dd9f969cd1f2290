"""Dedekind sums over a prime modulus and their discrete Fourier transform.

The transform s_hat_q(t) = (1/q) sum_a s_q(a) e(at/q) is purely imaginary
and odd in t.  Three independent routes are provided: the full transform
(the naive definitional sums, or Rader's reindexing over the cyclic group,
which makes it one real correlation of length-(q-1)/2 sequences by an FFT
zero-padded to a 5-smooth length >= q - 2, with no Bluestein step), a
Dirichlet-character identity over the odd characters, and the truncated
sawtooth series over inv(n) at every t, within O(q/N) (``spectrum_truncated``).

The transform is exactly odd, so a ``Spectrum`` holds its group half
Im s_hat_q(g^n), n < H = (q-1)/2, and writes the residue vector only when
``values`` is first read.  Every half is read-only (4 bytes per residue);
the fast route's is memoised for the last modulus: ``spectrum_all`` and
``characters.build_table``, which computes the character sums S(k) from it,
share one Dedekind descent and one prime context per modulus.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import (
    PrimeContext,
    _dot,
    _fold,
    _inverse_2n_terms,
    _memo_last,
    _odd_correlation,
    _odd_over_group,
    _psi_kernel,
    build_context,
    require_below_cap,
    require_odd_prime,
)
from .errors import ResourceLimitError
from .foundations import require_sieve_limit

__all__ = [
    "dedekind_sum_pair",
    "dedekind_values",
    "Spectrum",
    "spectrum_all",
    "spectrum_truncated",
    "spectrum_point_characters",
]


# ---------------------------------------------------------------------------
# exact Dedekind sums

# terms a definitional route evaluates: k - 1 for the direct Dedekind sum,
# (q - 1)/2 * q phase terms for the naive spectrum
_NAIVE_BUDGET = 100_000_000


def _dedekind_direct(h: int, k: int) -> Fraction:
    # sum_{x mod k} psi(x/k) psi(hx/k), folded to one integer accumulation:
    # psi(x/k) = (2x - k)/(2k) for 0 < x < k.
    total = 0
    for x in range(1, k):
        hx = (h * x) % k
        if hx:
            total += (2 * x - k) * (2 * hx - k)
    return Fraction(total, 4 * k * k)


def _dedekind_reciprocity(h: int, k: int) -> Fraction:
    # Euclidean descent through the reciprocity law, O(log k) exact steps.
    h %= k
    total = Fraction(0)
    sign = 1
    while h:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        h, k = k % h, h
        sign = -sign
    return total


def dedekind_sum_pair(h: int, k: int, method: str = "reciprocity") -> Fraction:
    """Classical Dedekind sum s(h, k) = s_k(h) for any modulus k >= 1,
    gcd(h, k) = 1.  ``direct`` is the O(k) definitional sum and refuses more
    than 1e8 terms k - 1 before its loop; ``reciprocity`` is the O(log k)
    descent.  They agree exactly."""
    if k < 1:
        raise ValueError("modulus must be >= 1")
    if math.gcd(h, k) != 1:
        raise ValueError(f"gcd({h}, {k}) != 1")
    if method == "direct":
        if k - 1 > _NAIVE_BUDGET:
            raise ResourceLimitError(
                f"the direct Dedekind sum mod {k} evaluates {k - 1} terms, "
                f"above budget {_NAIVE_BUDGET}"
            )
        return _dedekind_direct(h % k, k)
    if method == "reciprocity":
        return _dedekind_reciprocity(h, k)
    raise ValueError(f"unknown method {method!r}")


_DESCENT_BLOCK = 1 << 15  # lanes a per block of the descent in dedekind_values


def dedekind_values(q: int) -> np.ndarray:
    """s_q(a) for a = 0..q-1 as float64 (a = 0 entry is 0), q an odd prime.

    The float reciprocity descent runs in lockstep over blocks of
    ``_DESCENT_BLOCK`` lanes a < q/2, each lane a pair (h, k) with its own
    running sum: each step adds sign * ((h^2 + k^2 + 1)/(12hk) - 1/4) to the
    sums and maps (h, k) -> (k mod h, h).  All lanes of a block are at the
    same step, so the sign is shared.  Each lane sees the float operations of
    the scalar descent in the same order (0.0 + t_1, then +- t_i), so its
    value is the scalar descent's bit for bit:

    - float64 lanes: h and k are held as float64 values of the same
      integers, h < k <= q.  h^2 + k^2 + 1 is exact while 2q^2 + 1 < 2^53
      (q < 6.7e7; ``characters.MAX_Q`` is 2e6), 12h is exact, and
      fl(12h * k) is the product the scalar descent forms.
    - k mod h is k - h floor(fl(k/h)).  If h divides k the quotient is
      exact.  Otherwise k/h is at least 1/h from every integer and fl(k/h)
      is within (k/h) 2^-53 < 1/h of it, so the floor is exact, and so are
      h floor(k/h) <= k and the difference.
    - Each step is written in place into the block's lane buffers (h, k, the
      sums, two float temporaries and a mask), allocated once per block and
      shortened only by a compaction.
    - Parked lanes: a lane finishes on the step that leaves h = 0, and then
      k = gcd = 1.  It is parked at (1, 1), whose term (1 + 1 + 1)/12 - 1/4
      is exactly 0.0, so its sum keeps every bit (a sum is never -0.0: it
      starts at +0.0, and x - x is +0.0).  The next step takes it to (0, 1),
      and it is parked again.
    - Compaction: only once more than half of the lanes have finished are
      the finished sums written to the values, each once, and the live
      lanes gathered into shorter arrays.

    Error bound.  Let u = 2^-53, and let the descent from (a, q), a < q/2,
    take n steps with partial quotients c_i = floor(k_i/h_i), those of the
    continued fraction of q/a.  Then:

    - x_i = (h^2 + k^2 + 1)/(12hk) < (c_i + 5/2)/12 (k/h < c_i + 1, h/k < 1,
      hk >= 2), and x_i >= 1/6, so |t_i| = |x_i - 1/4| < (c_i + 5/2)/12;
    - the product fl(12h * k), the division and the subtraction of 1/4 each
      round once: |fl(t_i) - t_i| <= (3.01 x_i + 1/4) u < (c_i + 4) u/3;
    - c_i h_i = k_i - k_(i+2), so the quotients after the first sum to at
      most a + (q mod a) - 1, and sum_i c_i <= q/a + 2a - 2 <= q;
    - the n - 1 additions after the exact 0.0 + t_1 each round once, by at
      most u times a partial sum, below 1.01 (q + 5n/2)/12 < (q + 3n)/11.

    Together, and for a > q/2 by exact oddness,

        |value - s_q(a)| <= u ((q + 4n)/3 + (n - 1)(q + 3n)/11).

    Lame's bound q >= F_(n+2) (the Fibonacci numbers) gives n <= 29 for
    q <= ``characters.MAX_Q``, where the bound is 6.4e-10.
    """
    require_odd_prime(q)
    # tracemalloc peak per residue at q ~ 1e6 (10.4): the values, and one
    # block's lanes with a compaction's gathers (2.4 MB)
    require_below_cap(q, "Dedekind values", 11)
    half = (q - 1) // 2
    vals = np.zeros(q)
    for lo in range(1, half + 1, _DESCENT_BLOCK):
        hi = min(lo + _DESCENT_BLOCK, half + 1)
        idx = np.arange(lo, hi)
        h = np.arange(lo, hi, dtype=np.float64)
        k = np.full(len(h), float(q))
        acc = np.zeros(len(h))
        t, w, live = np.empty(len(h)), np.empty(len(h)), np.empty(len(h), dtype=bool)
        add = True
        while True:
            np.multiply(h, h, out=t)
            np.multiply(k, k, out=w)
            t += w
            t += 1.0
            np.multiply(h, 12.0, out=w)
            w *= k
            t /= w
            t -= 0.25
            if add:
                acc += t
            else:
                acc -= t
            np.divide(k, h, out=t)
            np.floor(t, out=t)
            t *= h
            k -= t
            h, k = k, h
            # a lane is live while h >= 1; more than half finished: compact
            if 2 * np.count_nonzero(np.greater_equal(h, 1.0, out=live)) < len(h):
                keep = np.flatnonzero(live)
                fin = np.flatnonzero(np.logical_not(live, out=live))
                vals[idx[fin]] = acc[fin]
                if not len(keep):
                    break
                idx, h, k, acc = idx[keep], h[keep], k[keep], acc[keep]
                t, w, live = t[: len(keep)], w[: len(keep)], live[: len(keep)]
            else:
                np.maximum(h, 1.0, out=h)
            add = not add
    # oddness s_q(q - a) = -s_q(a) fills the upper half exactly
    np.negative(vals[half:0:-1], out=vals[half + 1 :])
    return vals


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class Spectrum:
    """Imaginary parts of s_hat_q(t) (the transform is purely imaginary),
    kept as the group half ``half[n]`` = Im s_hat_q(g^n), n < H = (q-1)/2,
    g = ``context.powers[1]``; Im s_hat_q(g^(n+H)) = -half[n] and
    Im s_hat_q(0) = 0.  ``half`` is read-only: the chirp-z route's is the
    memo of the last modulus, the other routes' a fresh array per call.

    ``values`` is the residue vector t = 0..q-1, exactly odd:
    values[(q-t) % q] == -values[t].  It is written from the half on first
    read (8 bytes per residue, the half only read) and read-only.

    A kept ``Spectrum`` pins its half (4 bytes per residue) and its context
    (8), 12 bytes per residue, 20 once ``values`` is read, also after the
    last-modulus memos have moved on to another modulus."""

    q: int
    half: np.ndarray
    context: PrimeContext

    @functools.cached_property
    def values(self) -> np.ndarray:
        values = _odd_over_group(self.context, self.half, 0.0)
        values.flags.writeable = False
        return values


_NAIVE_BLOCK = 256  # rows of t per outer product in _dft_positive_naive


def _dft_positive_naive(x: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """X_t = sum_a x_a e(+at/q) for each t in ``ts``, by blocked outer
    products, O(q len(ts))."""
    q = len(x)
    a = np.arange(q)
    out = np.empty(len(ts), dtype=complex)
    for lo in range(0, len(ts), _NAIVE_BLOCK):
        t = ts[lo : lo + _NAIVE_BLOCK]
        phases = np.exp((2j * math.pi / q) * (np.outer(t, a) % q))
        out[lo : lo + len(t)] = phases @ x
    return out


def _check_parseval(q: int, energy: float, half: np.ndarray) -> None:
    """Given the energy E = (1/q) sum_a s_q(a)^2 and the spectrum's group
    half, require |sum_t Im(s_hat_q(t))^2 - E| <= 1e-12 log(q) E
    (ArithmeticError); the sum over t is 2 sum_n half[n]^2."""
    residual = abs(2.0 * _dot(half, half) - energy)
    if residual > 1e-12 * math.log(q) * energy:
        raise ArithmeticError(f"spectrum Parseval residual {residual:g} above budget")


@_memo_last
def _spectrum_values(q: int) -> np.ndarray:
    """Im s_hat_q(g^n), n < (q-1)/2, by Rader's route, Parseval-checked and
    read-only; memoised for the last modulus, so ``spectrum_all`` and
    ``build_table`` share one Dedekind descent and one context (12 bytes per
    residue with the context).  s_q is exactly odd, so its fold over the
    group is 2 s_q(g^m)."""
    s = dedekind_values(q)
    energy = _dot(s, s) / q
    ctx = build_context(q)
    u = 2.0 * s[ctx.powers[: (q - 1) // 2]]
    del s
    half = _odd_correlation(
        ctx, u, lambda a, out: np.sin(np.multiply(a, 2.0 * math.pi / q, out=out), out=out),
        1.0 / q,
    )
    _check_parseval(q, energy, half)
    half.flags.writeable = False
    return half


# tracemalloc peak per residue of spectrum_all (chirp-z) at q ~ 1e6 with
# nothing memoised (28.2), and of spectrum_truncated at N = 1000 (28.3): the
# context and the fold (12) beside the real FFT buffers of the correlation
# (16); the chirp-z memo keeps the context and the half (12)
_SPECTRUM_BYTES_PER_RESIDUE = 29


def spectrum_all(q: int, algorithm: str = "chirp-z") -> Spectrum:
    """Full transform of the Dedekind sums mod q.

    s_q is odd, so s_hat_q(t) = (i/q) sum_a s_q(a) sin(2 pi a t/q) is
    imaginary and odd in t, and only t = g^n, n < H = (q-1)/2, is computed;
    t = g^(n+H) = -g^n takes the negated value and t = 0 the value 0, so
    the ``Spectrum`` holds that group half and its ``values`` are exactly
    odd.  ``naive`` evaluates the definitional DFT at those t in O(q^2),
    refuses more than 1e8 phase terms H q (q above about 14 000) before it
    allocates, and returns a fresh read-only half.  ``chirp-z`` (the
    name of the fast route) uses Rader's reindexing over the group, a = g^m:

        s_hat_q(g^n) = (i/q) sum_{m<H} (s_q(g^m) - s_q(g^(m+H))) sin(2 pi g^(m+n)/q),

    one real correlation by FFT at the smallest 5-smooth length >= q - 2
    (``characters._odd_correlation``); its half is the read-only memo of
    the last modulus, which ``build_table`` reads too.  Both routes must
    pass Parseval: with E = (1/q) sum_a s_q(a)^2,
    |sum_t Im(s_hat_q(t))^2 - E| <= 1e-12 log(q) E.
    """
    require_odd_prime(q)
    require_below_cap(q, "spectrum", _SPECTRUM_BYTES_PER_RESIDUE)
    if algorithm == "chirp-z":
        half = _spectrum_values(q)
    elif algorithm == "naive":
        terms = (q - 1) // 2 * q
        if terms > _NAIVE_BUDGET:
            # a block peaks at the int64 products and residues, or at the
            # complex phases and their exponentials: 32 bytes per term
            raise ResourceLimitError(
                f"the naive spectrum at q = {q} evaluates {terms} phase terms, "
                f"above budget {_NAIVE_BUDGET} (each block of {_NAIVE_BLOCK} rows "
                f"holds {32 * _NAIVE_BLOCK * q} bytes)"
            )
        s = dedekind_values(q)
        ctx = build_context(q)
        half = _dft_positive_naive(s, ctx.powers[: (q - 1) // 2]).imag / q
        half.flags.writeable = False
        _check_parseval(q, _dot(s, s) / q, half)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return Spectrum(q, half, build_context(q))


def spectrum_truncated(q: int, N: int) -> Spectrum:
    """Im s_hat_q(t) ~ -(1/pi) sum_{n<=N, (n,q)=1} psi(t inv(n)/q)/n at
    every t, within O(q/N), as a ``Spectrum`` with a fresh read-only half:
    ``ck_all``'s truncated route with 1/n in place of b(n), binned at the
    exponent of inv(n) = 2 inv(2n), ind(2) past that of inv(2n).  N < 1 is
    refused with ValueError before any work."""
    require_odd_prime(q)
    if N < 1:
        raise ValueError(f"series cutoff N = {N} must be >= 1")
    # tracemalloc peak per entry of [0, N]: the table of n beside its index
    # array, that array mod q and the coprime mask (25.0 at q = 101, N = 1e7)
    require_sieve_limit(N, 26)
    require_below_cap(q, "truncated spectrum", _SPECTRUM_BYTES_PER_RESIDUE)
    ctx = build_context(q)
    weights, e = _inverse_2n_terms(ctx, lambda n: np.arange(n + 1.0), N)
    np.divide(1.0, weights, out=weights)
    u = _fold(q, weights, np.remainder(e + ctx.index[2], q - 1, out=e))
    del weights, e  # at N = q the terms outweigh their fold
    half = _odd_correlation(ctx, u, _psi_kernel(q), -1.0 / math.pi)
    half.flags.writeable = False
    return Spectrum(q, half, ctx)


def spectrum_point_characters(q: int, t: int, table) -> complex:
    """Character-sum route: (-1/(pi i phi(q))) sum_{chi odd} chi_bar(t) L(0,chi) L(1,chi)."""
    if t % q == 0:
        raise ValueError("t must be coprime to q")
    if table.q != q:
        raise ValueError("character table was built for a different modulus")
    total = np.sum(table.chi_bar(t) * table.l_zero * table.l_one)
    # -1/(pi i) = i/pi
    return complex(1j / math.pi / (q - 1) * total)
