"""Dedekind sums over a prime modulus and their discrete Fourier transform.

The transform s_hat_q(t) = (1/q) sum_a s_q(a) e(at/q) is purely imaginary
and odd in t.  Three independent routes are provided: the full transform
(the naive definitional sums, or Rader's reindexing over the cyclic group,
which makes it one real correlation of length-(q-1)/2 sequences by an FFT
zero-padded to a 5-smooth length >= q - 2, with no Bluestein step), a
Dirichlet-character identity over the odd characters, and a truncated
sawtooth series with an O(q/x) error contract.

The Rader route's half of the spectrum is memoised for the last modulus
(``_spectrum_half``): ``spectrum_all`` and ``characters.build_table``, which
computes the character sums S(k) from it, share one Dedekind descent and
one prime context per modulus.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .characters import (
    _group_correlation,
    _odd_over_group,
    build_context,
    require_below_cap,
    require_odd_prime,
)

__all__ = [
    "dedekind_sum",
    "dedekind_sum_pair",
    "dedekind_values",
    "Spectrum",
    "spectrum_all",
    "spectrum_point_truncated",
    "spectrum_point_characters",
]


# ---------------------------------------------------------------------------
# exact Dedekind sums


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
    """Classical Dedekind sum s(h, k) for any modulus k >= 1, gcd(h, k) = 1."""
    if k < 1:
        raise ValueError("modulus must be >= 1")
    if math.gcd(h, k) != 1:
        raise ValueError(f"gcd({h}, {k}) != 1")
    if method == "direct":
        return _dedekind_direct(h % k, k)
    if method == "reciprocity":
        return _dedekind_reciprocity(h, k)
    raise ValueError(f"unknown method {method!r}")


def dedekind_sum(q: int, a: int, method: str = "reciprocity") -> Fraction:
    """Exact s_q(a) for prime q and a coprime to q.

    ``method='direct'`` is the O(q) definitional sum, ``'reciprocity'``
    the O(log q) descent; they agree exactly.
    """
    if a % q == 0:
        raise ValueError(f"a = {a} is not a reduced residue mod {q}")
    return dedekind_sum_pair(a % q, q, method)


def dedekind_values(q: int) -> np.ndarray:
    """s_q(a) for a = 0..q-1 as float64 (a = 0 entry is 0), q an odd prime.

    The float reciprocity descent runs in lockstep over every a < q/2: each
    step adds sign * ((h^2 + k^2 + 1)/(12hk) - 1/4) to the live lanes, maps
    (h, k) -> (k mod h, h) and drops the lanes that reached h = 0.  All lanes
    are at the same step, so the sign is shared, and each lane sees the
    float operations of a scalar descent in the same order.
    """
    require_odd_prime(q)
    # tracemalloc peak per residue: the values, the lanes idx, h, k and a step
    require_below_cap(q, "Dedekind values", 37)
    half = (q - 1) // 2
    vals = np.zeros(q)
    idx = np.arange(1, half + 1, dtype=np.int64)
    h = idx.copy()
    k = np.full(half, q, dtype=np.int64)
    sign = 1.0
    while len(idx):
        vals[idx] += sign * ((h * h + k * k + 1) / (12.0 * h * k) - 0.25)
        h, k = k % h, h
        live = h != 0
        idx, h, k = idx[live], h[live], k[live]
        sign = -sign
    # oddness s_q(q - a) = -s_q(a) fills the upper half exactly
    vals[half + 1 :] = -vals[half:0:-1]
    return vals


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class Spectrum:
    """Imaginary parts of s_hat_q(t) for t = 0..q-1 (the transform is purely
    imaginary).  ``values`` is exactly odd: values[(q-t) % q] == -values[t]."""

    q: int
    values: np.ndarray
    method: str


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


def _check_parseval(q: int, s: np.ndarray, half: np.ndarray) -> None:
    """With E = (1/q) sum_a s_q(a)^2, require
    |sum_t Im(s_hat_q(t))^2 - E| <= 1e-12 log(q) E (ArithmeticError)."""
    energy = float(np.dot(s, s)) / q
    residual = abs(2.0 * float(np.dot(half, half)) - energy)
    if residual > 1e-12 * math.log(q) * energy:
        raise ArithmeticError(f"spectrum Parseval residual {residual:g} above budget")


@functools.lru_cache(maxsize=1)
def _spectrum_half(q: int):
    """(the context of q, Im s_hat_q(g^n) for n < H = (q-1)/2) by Rader's
    route, Parseval-checked, read-only.

    Memoised for the last modulus, so ``spectrum_all`` and ``build_table``
    share one Dedekind descent and one context; the memo keeps the context
    and the spectrum alive (about 20 bytes per residue) until another q
    evicts them.
    """
    s = dedekind_values(q)
    ctx = build_context(q)
    H = (q - 1) // 2
    sines = np.sin((2.0 * math.pi / q) * ctx.powers)
    half = (2.0 / q) * _group_correlation(s[ctx.powers[:H]], sines)
    _check_parseval(q, s, half)
    half.flags.writeable = False
    return ctx, half


# tracemalloc peak per residue of spectrum_all (chirp-z) at q ~ 1e6 with
# nothing memoised: the context (16), dedekind_values (8), and the
# correlation's inputs and real FFT buffers; the memo keeps 20 of them
_SPECTRUM_BYTES_PER_RESIDUE = 61


def spectrum_all(q: int, algorithm: str = "chirp-z") -> Spectrum:
    """Full transform of the Dedekind sums mod q.

    s_q is odd, so s_hat_q(t) = (i/q) sum_a s_q(a) sin(2 pi a t/q) is
    imaginary and odd in t, and only t = g^n, n < H = (q-1)/2, is computed;
    t = g^(n+H) = -g^n takes the negated value and t = 0 the value 0, so
    ``values`` is exactly odd.  ``naive`` evaluates the definitional DFT at
    those t in O(q^2).  ``chirp-z`` (the name of the fast route) uses Rader's
    reindexing over the group, a = g^m:

        s_hat_q(g^n) = (2i/q) sum_{m<H} s_q(g^m) sin(2 pi g^(m+n)/q),

    one real correlation by FFT at the smallest 5-smooth length >= q - 2,
    memoised for the last modulus (``build_table`` reads the same one).
    Both routes must pass Parseval: with E = (1/q) sum_a s_q(a)^2,
    |sum_t Im(s_hat_q(t))^2 - E| <= 1e-12 log(q) E.
    """
    require_odd_prime(q)
    require_below_cap(q, "spectrum", _SPECTRUM_BYTES_PER_RESIDUE)
    if algorithm == "chirp-z":
        ctx, half = _spectrum_half(q)
    elif algorithm == "naive":
        s = dedekind_values(q)
        ctx = build_context(q)
        half = _dft_positive_naive(s, ctx.powers[: (q - 1) // 2]).imag / q
        _check_parseval(q, s, half)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return Spectrum(q, _odd_over_group(ctx, half, 0.0), algorithm)


_TRUNCATED_CHUNK = 1 << 22  # terms n per array step in spectrum_point_truncated


def spectrum_point_truncated(q: int, t: int, x: float) -> complex:
    """Truncated series (1/(pi i)) sum_{n<=x, (n,q)=1} psi(t inv(n)/q)/n.

    Error contract: |result - s_hat_q(t)| = O(q/x).  t is reduced mod q,
    so t * inv(n) < q^2 cannot wrap around int64.
    """
    require_odd_prime(q)
    t %= q
    if t == 0:
        raise ValueError("t must be coprime to q")
    if x < 1:
        raise ValueError("x must be >= 1")
    ctx = build_context(q)
    total = 0.0
    top = int(x)
    for lo in range(1, top + 1, _TRUNCATED_CHUNK):
        n = np.arange(lo, min(lo + _TRUNCATED_CHUNK, top + 1), dtype=np.int64)
        nm = n % q
        keep = nm != 0
        n = n[keep]
        inv = ctx.powers[-ctx.index[nm[keep]] % (q - 1)]  # inv(g^m) = g^(-m)
        r = (t * inv) % q
        total += float(np.sum((r / q - 0.5) / n))
    # 1/(pi i) = -i/pi, so the value is purely imaginary by construction
    return complex(0.0, -total / math.pi)


def spectrum_point_characters(q: int, t: int, table) -> complex:
    """Character-sum route: (-1/(pi i phi(q))) sum_{chi odd} chi_bar(t) L(0,chi) L(1,chi)."""
    if t % q == 0:
        raise ValueError("t must be coprime to q")
    if table.q != q:
        raise ValueError("character table was built for a different modulus")
    total = np.sum(table.chi_bar(t) * table.l_zero * table.l_one)
    # -1/(pi i) = i/pi
    return complex(1j / math.pi / (q - 1) * total)
