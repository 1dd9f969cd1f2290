import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import sawspec as sw
from sawspec import characters, dedekind
from sawspec.characters import CharacterTable, _smooth_length, build_context
from sawspec.errors import ResourceLimitError
from sawspec.foundations import coeff_a, coeff_a_floats, constant_C


# ---------------------------------------------------------------------------
# oracles: the full-length layout, one row per character j = 0..q-2, and the
# per-character helpers that read it


def _group_dft(values: np.ndarray) -> np.ndarray:
    # F[j] = sum_m values[m] e(+jm/M): the positive-sign DFT over Z/(q-1)
    return np.fft.ifft(values) * len(values)


def _full_table(q: int, a_series_cutoff: int = 100_000) -> SimpleNamespace:
    """All q-1 characters by three full-length DFTs (L(0), Gauss sums,
    A_{q,chi}); row j is character j, and even rows of L(0), L(1) are 0.
    ``bias_sums`` is the complex residue vector S(a), a = 0..q-1, with every
    group entry a = g^n taken from a fourth full-length DFT of the products,
    S(g^n) = sum_j P_j e(-jn/(q-1)), so neither oddness nor realness is
    imposed."""
    ctx = build_context(q)
    M = q - 1
    powers = ctx.powers
    l_zero = -_group_dft(powers / q - 0.5)
    l_zero[0] = 0.0
    l_zero[2::2] = 0.0
    gauss = _group_dft(np.exp((2j * math.pi / q) * powers))
    l_one = np.zeros(M, dtype=complex)
    j_odd = np.arange(1, M, 2)
    l_one[j_odd] = -gauss[j_odd] * (1j * math.pi / q) * l_zero[(M - j_odd) % M]
    a_vals = coeff_a_floats(a_series_cutoff)
    n = np.nonzero(a_vals)[0]
    n = n[n % q != 0]
    w = np.zeros(M)
    np.add.at(w, ctx.index[(2 * n) % q], a_vals[n])
    c_q, _ = constant_C(excluded_prime=q)
    a_chi = c_q * _group_dft(w)
    bias_sums = np.zeros(q, dtype=complex)
    bias_sums[powers] = np.fft.fft(l_zero * l_one * a_chi)
    return SimpleNamespace(
        q=q,
        context=ctx,
        l_zero=l_zero,
        l_one=l_one,
        gauss=gauss,
        a_chi=a_chi,
        bias_sums=bias_sums,
        a_tail_bound=2.0 * a_series_cutoff ** (-0.45),
    )


def _character_sums_mp(q: int, a_series_cutoff: int, residues, dps: int = 30):
    """S(a) for each a in ``residues`` from the character definition at
    ``dps`` digits: sum over odd j of conj(chi_j(a)) L(0,chi_j) L(1,chi_j)
    A_{q,chi_j}, with L(0,chi) = -sum_b chi(b) psi(b/q), L(1,chi) from
    -tau(chi) pi i/q L(0,chi_bar), and A_{q,chi} = C_q sum a(n) chi(2n) over
    n <= a_series_cutoff coprime to q, the exact a(n) binned by ind(2n).
    C_q is the float the library uses, so only the sums are checked."""
    mpmath = pytest.importorskip("mpmath")
    ctx = build_context(q)
    M = q - 1
    powers = ctx.powers.tolist()
    with mpmath.workdps(dps):
        root = [mpmath.expjpi(mpmath.mpf(2 * k) / M) for k in range(M)]  # e(k/M)
        w = [mpmath.mpf(0)] * M
        for n in range(1, a_series_cutoff + 1):
            a_n = coeff_a(n)
            if a_n and n % q:
                w[int(ctx.index[2 * n % q])] += mpmath.mpf(a_n.numerator) / a_n.denominator
        saw = [mpmath.mpf(2 * b - q) / (2 * q) for b in powers]  # psi(g^m/q)
        add = [mpmath.expjpi(mpmath.mpf(2 * b) / q) for b in powers]  # e(g^m/q)
        c_q = mpmath.mpf(constant_C(excluded_prime=q)[0])
        odd = range(1, M, 2)
        l_zero = {j: -mpmath.fsum(saw[m] * root[j * m % M] for m in range(M)) for j in odd}
        products = {}
        for j in odd:
            gauss = mpmath.fsum(add[m] * root[j * m % M] for m in range(M))
            l_one = -gauss * mpmath.mpc(0, mpmath.pi) / q * l_zero[M - j]
            a_chi = c_q * mpmath.fsum(w[m] * root[j * m % M] for m in range(M))
            products[j] = l_zero[j] * l_one * a_chi
        sums = []
        for a in residues:
            ind = int(ctx.index[a % q])
            sums.append(mpmath.fsum(root[-j * ind % M] * products[j] for j in odd))
        return sums


def char_value(table: CharacterTable, j: int, a: int) -> complex:
    """chi_j(a) = e(j ind(a)/(q-1)), or 0 on the residue 0."""
    ctx = table.context
    a %= ctx.q
    if a == 0:
        return 0j
    return complex(np.exp(2j * math.pi * j * int(ctx.index[a]) / (ctx.q - 1)))


def gauss_sum(full: SimpleNamespace, j: int) -> complex:
    """tau(chi_j) = sum_m chi_j(m) e(m/q), read from a ``_full_table``."""
    return complex(full.gauss[j % (full.q - 1)])


def l_one_series(
    table: CharacterTable, j: int, x: float, chunk: int = 1 << 22
) -> complex:
    """Truncated Dirichlet series sum_{n <= x} chi_j(n)/n; error O(q/x)."""
    ctx = table.context
    q = ctx.q
    M = q - 1
    if j % M == 0:
        raise ValueError("series cutoff route requires a nonprincipal character")
    total = 0j
    top = int(x)
    for lo in range(1, top + 1, chunk):
        n = np.arange(lo, min(lo + chunk, top + 1), dtype=np.int64)
        nm = n % q
        keep = nm != 0
        n = n[keep]
        phases = np.exp((2j * math.pi / M) * (j * ctx.index[nm[keep]] % M))
        total += complex(np.sum(phases / n))
    return total


@pytest.fixture(scope="module")
def full_101():
    return _full_table(101)


class TestContext:
    def test_primitive_root_generates(self):
        for q in (3, 5, 7, 101, 997):
            ctx = build_context(q)
            assert sorted(ctx.powers.tolist()) == list(range(1, q))
            assert ctx.index[ctx.primitive_root] == 1
            assert ctx.index[1] == 0

    def test_index_bijection(self, table_101):
        idx = table_101.context.index
        assert sorted(idx[1:].tolist()) == list(range(100))

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            build_context(91)

    @pytest.mark.parametrize("q", [3, 101, 1_000_003])
    def test_tables_match_scalar_arithmetic(self, q):
        ctx = build_context(q)
        g = ctx.primitive_root
        rng = np.random.default_rng(q)
        for m in rng.integers(0, q - 1, 200).tolist():
            assert ctx.powers[m] == pow(g, m, q)
            assert ctx.index[ctx.powers[m]] == m
        assert ctx.index[0] == -1

    def test_int64_limit_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="bytes"):
                build_context(2_147_483_659)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestMemo:
    def test_spectrum_and_table_share_one_descent_and_context(self, monkeypatch):
        q = 10009
        dedekind._spectrum_half.cache_clear()
        characters._context.cache_clear()
        calls = {"dedekind_values": 0, "build_context": 0, "primitive_root": 0}

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)

        count(dedekind, "dedekind_values")
        count(dedekind, "build_context")
        count(characters, "build_context")
        count(characters, "primitive_root")
        for _ in range(2):
            spectrum = sw.spectrum_all(q)
            table = sw.build_table(q)
        assert calls == {"dedekind_values": 1, "build_context": 1, "primitive_root": 1}
        assert table.context is build_context(q)
        ctx, half = dedekind._spectrum_half(q)
        assert np.array_equal(spectrum.values[ctx.powers[: len(half)]], half)

    def test_memo_is_read_only_and_a_new_modulus_evicts_it(self):
        q = 1009
        ctx, half = dedekind._spectrum_half(q)
        for arr in (half, ctx.powers, ctx.index):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[1] = 0
        assert build_context(q) is ctx
        dedekind._spectrum_half(101)
        assert dedekind._spectrum_half.cache_info().currsize == 1
        assert characters._context.cache_info().currsize == 1
        assert build_context(q) is not ctx
        misses = dedekind._spectrum_half.cache_info().misses
        assert np.array_equal(dedekind._spectrum_half(q)[1], half)
        assert dedekind._spectrum_half.cache_info().misses == misses + 1


def test_smooth_length_is_least_5_smooth_bound():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 3000):
        L = _smooth_length(n)
        assert smooth(L) and L >= n
        assert not any(smooth(m) for m in range(n, L))
    assert _smooth_length(1_000_001) == 1_012_500


class TestBuildTable:
    def test_resource_cap(self):
        # 66 bytes per residue, past the cap at q = 2000003
        with pytest.raises(ResourceLimitError, match="132000198 bytes"):
            sw.build_table(2_000_003)

    def test_q3_l_values(self):
        t = sw.build_table(3, a_series_cutoff=100)
        # one odd character mod 3, j = 1, in row 0
        assert t.l_zero[0].real == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert abs(t.l_zero[0].imag) <= 1e-14
        assert t.l_one[0].real == pytest.approx(math.pi / (3 * math.sqrt(3)), abs=1e-13)

    def test_even_characters_l_zero_vanishes(self, table_101, full_101):
        # the table stores the 50 odd rows only; the even rows it leaves out
        # carry L(0) = 0
        t = table_101
        for arr in (t.l_zero, t.l_one, t.gauss, t.a_chi):
            assert arr.shape == (50,)
        assert np.all(full_101.l_zero[0::2] == 0)

    @pytest.mark.parametrize("q", [3, 5, 7, 101, 10007])
    def test_odd_rows_match_full_table(self, q, monkeypatch):
        # row i is character j = 2i + 1.  The L(0) and tau rows grow with q
        # (to ~130 at q = 10007) and both sides carry ~1e-15 relative FFT
        # noise; L(1) and A are O(1).  At q = 10007 the gaps are 2.3e-13
        # (tau) and 6.0e-15 (L(1)).  build_table leaves the rows to their
        # first use, which takes two half-length transforms, once
        half, full = sw.build_table(q), _full_table(q)
        assert "_l_rows" not in vars(half) and "a_chi" not in vars(half)
        transforms = []
        odd_dft = characters._odd_dft
        monkeypatch.setattr(
            characters, "_odd_dft", lambda *args: transforms.append(1) or odd_dft(*args)
        )
        bounds = {"l_zero": 1e-11, "gauss": 1e-11, "l_one": 1e-13, "a_chi": 1e-13}
        for _ in range(2):
            for name, bound in bounds.items():
                gap = np.max(np.abs(getattr(half, name) - getattr(full, name)[1::2]))
                assert gap <= bound, name
        assert len(transforms) == 2

    @pytest.mark.parametrize("q", [3, 5, 7, 101, 10007])
    def test_bias_sums_match_full_table(self, q):
        # the sums are (q-1) C(a), so they are compared on the C scale, where
        # the values are O(1) like L(1) and A.  The oracle's sums are complex
        # and not made odd, so the gap also bounds their imaginary parts and
        # their oddness defect
        half, full = sw.build_table(q), _full_table(q)
        S = half.bias_sums
        assert S.shape == (q,) and S.dtype == np.float64
        assert np.max(np.abs(S - full.bias_sums)) / (q - 1) <= 1e-13
        assert S[0] == 0.0
        assert np.array_equal(S[q - np.arange(1, q)], -S[1:])
        for a in (1, 2, q - 1, q + 2, -2, 5 * q - 1):
            assert half.bias_sum(a) == S[a % q]
        assert 0.0 <= half.residual <= 1e-12 * max(1.0, abs(S[1]) / (q - 1))
        ck = sw.ck_all(q, "characters", half)
        assert np.array_equal(ck.values[1:], S[1:] * (1.0 / (q - 1)))

    def test_bias_sums_match_character_definition_mp(self):
        # the 30-digit oracle from the character definition, at q = 101 with
        # a(n) to 1000, every residue; on the C scale the gap is ~1e-15
        q, cutoff = 101, 1000
        table = sw.build_table(q, a_series_cutoff=cutoff)
        exact = _character_sums_mp(q, cutoff, range(1, q))
        for a, value in zip(range(1, q), exact):
            assert abs(value.imag) / (q - 1) <= 1e-25
            assert abs(table.bias_sums[a] - float(value.real)) / (q - 1) <= 1e-14

    def test_perturbed_correlation_fails_the_residual(self, monkeypatch):
        # a shift of 1e-9 in the correlation is ~4e-9 on the C scale, far
        # past the 1e-12 budget of the direct S(1)
        correlation = characters._group_correlation
        monkeypatch.setattr(
            characters, "_group_correlation", lambda u, v: correlation(u, v) + 1e-9
        )
        with pytest.raises(ArithmeticError, match="residual"):
            sw.build_table(101)

    @pytest.mark.parametrize("a", [0, 101, -202])
    def test_zero_residue_is_refused(self, table_101, a):
        # unchecked, the residue 0 would read S(0) = 0 and, through the
        # sentinel index[0] = -1, chi_j(g^-1)
        with pytest.raises(ValueError):
            table_101.bias_sum(a)
        with pytest.raises(ValueError):
            table_101.chi_bar(a)

    def test_principal_sawtooth_sum_is_zero(self):
        # sum_a psi(a/q) = 0, so the principal row vanishes before zeroing too
        q = 101
        raw = -sum(sw.psi(a / q) for a in range(1, q))
        assert raw == pytest.approx(0.0, abs=1e-12)

    def test_even_l_zero_direct_small_q(self):
        # direct check of the finite sum for one even character mod 7
        q = 7
        ctx = build_context(q)
        chi = np.zeros(q, dtype=complex)
        for a in range(1, q):
            chi[a] = np.exp(2j * math.pi * 2 * ctx.index[a] / (q - 1))  # j = 2, even
        val = -sum(chi[a] * sw.psi(a / q) for a in range(1, q))
        assert abs(val) <= 1e-14


class TestCharValue:
    def test_at_generator(self, table_101):
        g = table_101.context.primitive_root
        for j in (1, 2, 7):
            assert char_value(table_101, j, g) == pytest.approx(
                np.exp(2j * math.pi * j / 100), abs=1e-14
            )

    def test_at_one_and_minus_one(self, table_101):
        for j in range(0, 10):
            assert char_value(table_101, j, 1) == 1
            assert char_value(table_101, j, 100) == pytest.approx(
                (-1.0) ** j, abs=1e-13
            )

    def test_zero_class(self, table_101):
        assert char_value(table_101, 3, 0) == 0
        assert char_value(table_101, 3, 101) == 0

    def test_multiplicative(self, table_101):
        j = 5
        for a, b in ((2, 3), (7, 40), (99, 55)):
            lhs = char_value(table_101, j, a * b)
            rhs = char_value(table_101, j, a) * char_value(table_101, j, b)
            assert lhs == pytest.approx(rhs, abs=1e-13)


class TestGaussSums:
    def test_principal_is_minus_one(self, full_101):
        assert gauss_sum(full_101, 0) == pytest.approx(-1.0 + 0j, abs=1e-11)

    def test_quadratic_mod5(self):
        t = _full_table(5, a_series_cutoff=100)
        # j = 2 is the quadratic (Legendre) character; classical value sqrt(5)
        assert gauss_sum(t, 2) == pytest.approx(math.sqrt(5.0) + 0j, abs=1e-10)

    def test_modulus_sqrt_q(self, table_101, full_101):
        for j in range(1, 100):
            assert abs(gauss_sum(full_101, j)) == pytest.approx(
                math.sqrt(101.0), abs=1e-10
            )
        assert np.max(np.abs(np.abs(table_101.gauss) - math.sqrt(101.0))) <= 1e-10

    def test_against_direct_definition(self, table_101, full_101):
        q = 101
        for j in (1, 17, 50):
            direct = sum(
                char_value(table_101, j, m) * np.exp(2j * math.pi * m / q)
                for m in range(1, q)
            )
            assert gauss_sum(full_101, j) == pytest.approx(direct, abs=1e-10)
            if j % 2:
                assert table_101.gauss[j // 2] == pytest.approx(direct, abs=1e-10)


class TestLOneSeries:
    def test_q3_closed_form(self):
        t = sw.build_table(3, a_series_cutoff=100)
        val = l_one_series(t, 1, 10**6)
        assert val.real == pytest.approx(math.pi / (3 * math.sqrt(3)), abs=1e-4)

    def test_even_character_smoke(self, table_101):
        val = l_one_series(table_101, 2, 10**5)
        assert np.isfinite(val.real) and np.isfinite(val.imag)
        assert abs(val) > 1e-3

    def test_functional_equation_scan(self, table_101):
        q, x = 101, 10**5
        for j in range(1, 100, 2):
            diff = abs(l_one_series(table_101, j, x) - table_101.l_one[j // 2])
            assert diff <= 10 * q / x

    def test_rejects_principal(self, table_101):
        with pytest.raises(ValueError):
            l_one_series(table_101, 0, 100)


class TestTableProperties:
    def test_orthogonality_random_pairs(self, table_101):
        q = 101
        rng = np.random.default_rng(11)
        js = np.arange(q - 1)
        for _ in range(12):
            a, b = rng.integers(1, q, 2)
            total = np.mean(
                [
                    char_value(table_101, int(j), int(a))
                    * np.conj(char_value(table_101, int(j), int(b)))
                    for j in js
                ]
            )
            expected = 1.0 if a == b else 0.0
            assert abs(total - expected) <= 1e-10

    def test_a_chi_principal_near_one(self):
        full = _full_table(10007)
        assert abs(full.a_chi[0] - 1.0) <= full.a_tail_bound

    def test_a_chi_tail_shrinks(self):
        t1 = sw.build_table(101, a_series_cutoff=2000)
        t4 = sw.build_table(101, a_series_cutoff=8000)
        t16 = sw.build_table(101, a_series_cutoff=32000)
        d1 = float(np.max(np.abs(t4.a_chi - t1.a_chi)))
        d2 = float(np.max(np.abs(t16.a_chi - t4.a_chi)))
        assert d1 / d2 >= 1.5

    def test_conjugate_pairing(self, full_101):
        # the L-values and the Euler corrections have real Dirichlet
        # coefficients, so conjugating the character conjugates the value
        M = 100
        j = np.arange(1, M)
        for arr in (full_101.l_zero, full_101.l_one, full_101.a_chi):
            assert np.max(np.abs(arr[j] - np.conj(arr[M - j]))) <= 1e-10
        # Gauss sums pick up the parity sign: tau(chi_bar) = chi(-1) conj(tau)
        signs = (-1.0) ** j
        assert (
            np.max(np.abs(full_101.gauss[M - j] - signs * np.conj(full_101.gauss[j])))
            <= 1e-10
        )
