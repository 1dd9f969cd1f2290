import math
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import sawspec as sw
from sawspec import characters, dedekind
from sawspec.characters import CharacterTable, _smooth_length, build_context
from sawspec.errors import ResourceLimitError
from sawspec.foundations import coeff_a_floats, coeff_b_floats, constant_C

from oracles import coeff_a, psi


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
            g = int(ctx.powers[1])
            assert g == characters.primitive_root(q)
            assert ctx.index[g] == 1
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
        g = int(ctx.powers[1])
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

    def test_mapped_tables_are_traced_until_freed(self):
        # the tables live in mappings of their own, which tracemalloc still
        # counts while the memo holds them and drops once it lets them go
        q = 100_003
        build_context(101)
        tracemalloc.start()
        try:
            ctx = build_context(q)
            nbytes = ctx.powers.nbytes + ctx.index.nbytes
            held, _ = tracemalloc.get_traced_memory()
            del ctx
            build_context(101)  # the memo drops q's tables
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nbytes <= held < nbytes + (1 << 16)
        assert left < 1 << 16


def _odd_over_group_scatter(ctx, half, zero):
    """The odd vector by two scatters through the powers, -half a new array:
    the reference the bitwise tests below compare against."""
    H = len(half)
    values = np.full(ctx.q, zero)
    values[ctx.powers[:H]] = half
    values[ctx.powers[H:]] = -half
    return values


def _odd_over_group_gather(ctx, half, zero):
    """The odd vector by one gather through the discrete log from the
    doubled vector (half, -half): the form _odd_over_group replaced."""
    values = np.empty(ctx.q)
    values[0] = zero
    values[1:] = np.concatenate((half, -half))[ctx.index[1:]]
    return values


@pytest.mark.parametrize("zero", [0.0, np.nan])
def test_odd_over_group_gather_matches_scatter_bitwise(zero):
    # the in-place negation gives -0.0 and NaN the same bits as -half does,
    # and the half is only read
    for q in (3, 10007, 1_000_003):
        ctx = build_context(q)
        half = np.random.default_rng(q).standard_normal((q - 1) // 2)
        half[:3] = [0.0, -0.0, np.nan][: len(half)]
        expected = _odd_over_group_gather(ctx, half, zero)
        assert np.array_equal(
            _bits(_odd_over_group_scatter(ctx, half, zero)), _bits(expected)
        )
        given = half.copy()
        got = characters._odd_over_group(ctx, given, zero)
        assert np.array_equal(_bits(got), _bits(expected))
        assert np.array_equal(_bits(given), _bits(half))


def test_odd_over_group_allocates_only_its_output():
    # the output (8 bytes per residue) and no -half or doubled (half, -half)
    # beside it, which would add 12
    q = 100003
    ctx = build_context(q)
    half = np.ones((q - 1) // 2)
    tracemalloc.start()
    try:
        characters._odd_over_group(ctx, half, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 8 * q <= peak < 9 * q


@pytest.mark.parametrize("q", [3, 101, 10007])
def test_callers_scale_the_written_vector_bitwise(q):
    # the formulas that scaled a copy of the half and wrote it: -pi half for
    # from_spectrum, half (1/(q-1)) for the characters C(k), entry 0 included.
    # fl(-x c) = -fl(x c), so scaling the written vector gives the same bits
    spectrum, table = sw.spectrum_all(q), sw.build_table(q)
    ctx = spectrum.context
    expected = _odd_over_group_scatter(ctx, np.multiply(spectrum.half, -math.pi), 0.0)
    assert np.array_equal(_bits(sw.from_spectrum(spectrum).samples), _bits(expected[1:]))
    expected = _odd_over_group_scatter(ctx, table.half * (1.0 / (q - 1)), np.nan)
    ck = sw.ck_all(q, "characters", table=table)
    assert np.array_equal(_bits(ck.values), _bits(expected))
    expected = _odd_over_group_scatter(ctx, spectrum.half, 0.0)
    assert np.array_equal(_bits(spectrum.values), _bits(expected))


def test_callers_allocate_only_the_written_vector():
    # from_spectrum, the characters C(k) and the spectrum's values each write
    # the half they hold as it is and scale the vector in place: 8 bytes per
    # residue and numpy's fixed buffer for casting the int32 index (68 888
    # bytes), with no copied or scaled half beside it (4 more per residue)
    q = 100003
    spectrum, table = sw.spectrum_all(q), sw.build_table(q)
    for call in (
        lambda: sw.from_spectrum(spectrum),
        lambda: sw.ck_all(q, "characters", table=table),
        lambda: spectrum.values,
    ):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * q + (1 << 17)


class TestMemo:
    def test_spectrum_and_table_share_one_descent_and_context(self, monkeypatch):
        q = 10009
        sw.spectrum_all(101)  # the memos now hold another modulus
        calls = {"dedekind_values": 0, "primitive_root": 0}

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)

        count(dedekind, "dedekind_values")
        count(characters, "primitive_root")
        for _ in range(2):
            spectrum = sw.spectrum_all(q)
            table = sw.build_table(q)
        assert calls == {"dedekind_values": 1, "primitive_root": 1}
        assert table.context is build_context(q)
        assert spectrum.half is dedekind._spectrum_values(q)

    def test_memo_is_read_only_and_a_new_modulus_evicts_it(self, monkeypatch):
        q = 1009
        values = sw.spectrum_all(q).half
        ctx = build_context(q)
        for arr in (values, ctx.powers, ctx.index):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[1] = 0
        sw.spectrum_all(101)
        assert build_context(q) is not ctx
        descents = []
        descent = dedekind.dedekind_values
        monkeypatch.setattr(
            dedekind, "dedekind_values", lambda n: descents.append(n) or descent(n)
        )
        again = sw.spectrum_all(q).half
        assert again is not values and np.array_equal(again, values)
        assert sw.spectrum_all(q).half is again
        assert descents == [q]

    def test_last_modulus_is_dropped_before_the_next_is_built(self, monkeypatch):
        # the previous modulus's spectrum is gone when the next descent runs,
        # and its context when the next primitive root is sought, so the
        # arrays of two moduli are never held at once
        refs = (weakref.ref(sw.spectrum_all(1013).half), weakref.ref(build_context(1013)))
        dead = {}
        for module, name in ((dedekind, "dedekind_values"), (characters, "primitive_root")):
            builder = getattr(module, name)

            def spy(n, name=name, builder=builder):
                dead[name] = [ref() is None for ref in refs]
                return builder(n)

            monkeypatch.setattr(module, name, spy)
        sw.spectrum_all(1019)
        assert dead["dedekind_values"][0]
        assert dead["primitive_root"] == [True, True]

    def test_spectrum_values_are_the_memo(self):
        q = 1009
        values = sw.spectrum_all(q).half
        assert sw.spectrum_all(q).half is values
        assert sw.build_table(q).context is build_context(q)
        assert sw.spectrum_all(q).half is values
        with pytest.raises(ValueError):
            values[1] = 0.0
        naive = sw.spectrum_all(q, "naive").half
        assert naive is not values and not naive.flags.writeable
        with pytest.raises(ValueError):
            naive[1] = 0.0
        assert sw.spectrum_all(q, "naive").half is not naive

    @pytest.mark.parametrize("algorithm", ["chirp-z", "naive"])
    def test_residue_vector_is_written_once_from_the_half(self, algorithm):
        # values is the parent's residue vector: the half scattered through
        # the group, 0 at t = 0.  It is written on first read, read-only, and
        # leaves the half as it was
        q = 1009
        spectrum = sw.spectrum_all(q, algorithm)
        half = spectrum.half.copy()
        assert "values" not in vars(spectrum)
        values = spectrum.values
        assert spectrum.values is values and not values.flags.writeable
        expected = _odd_over_group_scatter(spectrum.context, half, 0.0)
        assert np.array_equal(_bits(values), _bits(expected))
        assert np.array_equal(_bits(spectrum.half), _bits(half))

    def test_one_modulus_keeps_16_bytes_per_residue(self):
        # the context (8), the spectrum's half (4) and the table's half (4)
        # stay live after spectrum_all and build_table; no residue vector does
        q = 1_000_003
        sw.spectrum_all(101)  # the memos now hold another modulus
        tracemalloc.start()
        try:
            spectrum = sw.spectrum_all(q)
            table = sw.build_table(q)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current < 17 * q
        assert spectrum.half is dedekind._spectrum_values(q) and table.q == q


@pytest.mark.parametrize("q", [3, 101, 1_000_003])
def test_inverse_matches_pow(q):
    ctx = build_context(q)
    a = np.random.default_rng(q).integers(1, q, 500)
    expected = [pow(int(x), -1, q) for x in a]
    assert ctx.inverse(a).tolist() == expected
    assert [int(ctx.inverse(int(x))) for x in a[:20]] == expected[:20]
    assert int(ctx.inverse(1)) == 1 and int(ctx.inverse(q - 1)) == q - 1


# ---------------------------------------------------------------------------
# oracles for _odd_correlation: the exponent-bin forms it replaced, each a
# correlation over the discrete-log exponents written out by hand


def _group_correlation(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """c_n = sum_{m<H} u_m v_{m+n} for n < H = len(u), by one real FFT at the
    5-smooth length >= 2H - 1."""
    H = len(u)
    L = _smooth_length(2 * H - 1)
    spectrum = np.fft.rfft(v[: 2 * H - 1], L) * np.conj(np.fft.rfft(u, L))
    return np.fft.irfft(spectrum, L)[:H]


def _weights_by_exponent(ctx, coeffs: np.ndarray):
    """The nonzero coeffs[n], n coprime to q, their e = ind(inv(2n)), and
    the weights binned by e."""
    q = ctx.q
    ns = np.nonzero(coeffs)[0]
    ns = ns[ns % q != 0]
    weights, e = coeffs[ns], -ctx.index[(2 * ns) % q] % (q - 1)
    return weights, e, np.bincount(e, weights=weights, minlength=q - 1)


def _bits(values: np.ndarray) -> np.ndarray:
    return values.view(np.int64)


ODD_CORRELATION_QS = [3, 5, 7, 101, 1009, 10007, 100003]


class TestOddCorrelation:
    @pytest.mark.parametrize("q", ODD_CORRELATION_QS)
    def test_spectrum_matches_exponent_form_bitwise(self, q):
        # s_hat_q(g^n) = (2i/q) sum_{m<H} s_q(g^m) sin(2 pi g^(m+n)/q)
        ctx, H = build_context(q), (q - 1) // 2
        s = dedekind.dedekind_values(q)
        sines = np.sin((2.0 * math.pi / q) * ctx.powers)
        half = (2.0 / q) * _group_correlation(s[ctx.powers[:H]], sines)
        expected = _odd_over_group_scatter(ctx, half, 0.0)
        assert np.array_equal(_bits(sw.spectrum_all(q).values), _bits(expected))

    @pytest.mark.parametrize("q", ODD_CORRELATION_QS)
    def test_truncated_ck_matches_exponent_form_bitwise(self, q):
        # C(g^i) = -C_q sum_{e<H} (W_e - W_{e+H}) psi(g^(i+e)/q)
        ctx, H = build_context(q), (q - 1) // 2
        _, _, W = _weights_by_exponent(ctx, coeff_b_floats(max(1000, q)))
        c_q, _ = constant_C(excluded_prime=q)
        half = -c_q * _group_correlation(W[:H] - W[H:], ctx.powers / q - 0.5)
        expected = _odd_over_group_scatter(ctx, half, np.nan)
        assert np.array_equal(_bits(sw.ck_all(q, "truncated").values), _bits(expected))

    @pytest.mark.parametrize("q", ODD_CORRELATION_QS)
    def test_table_matches_exponent_form_bitwise(self, q):
        # S(g^i) = pi C_q (q-1) sum_{e<H} (W_e - W_{e+H}) Im s_hat_q(g^(i+e)),
        # the spectrum over the group as concatenate((half, -half))
        ctx, H = build_context(q), (q - 1) // 2
        spectrum_half = sw.spectrum_all(q).values[ctx.powers[:H]]
        weights, e, W = _weights_by_exponent(ctx, coeff_a_floats(100_000))
        c_q, _ = constant_C(excluded_prime=q)
        scale = math.pi * c_q * (q - 1)
        group = np.concatenate((spectrum_half, -spectrum_half))
        half = scale * _group_correlation(W[:H] - W[H:], group)
        direct = scale * float(np.einsum("i,i->", weights, group[e]))
        table = sw.build_table(q)
        expected = _odd_over_group_scatter(ctx, half, 0.0)
        sums = _odd_over_group_scatter(ctx, table.half, 0.0)
        assert np.array_equal(_bits(sums), _bits(expected))
        assert table.residual == abs(direct - half[0]) / (q - 1)

    def test_fold_passed_as_a_temporary_is_freed_after_its_transform(self, monkeypatch):
        # the traced window holds the fold u (4 bytes per residue).  The peak
        # is 20 bytes per residue, u beside h's transform and its own; a
        # conjugate not taken in place would add 8 (24.3 measured).  u is
        # gone by the inverse transform
        q = 100003
        ctx = build_context(q)
        refs = []

        def fold():
            u = np.ones((q - 1) // 2)
            refs.append(weakref.ref(u))
            return u

        def psi(a, out):
            np.divide(a, q, out=out)
            out -= 0.5

        alive = []
        irfft = np.fft.irfft
        monkeypatch.setattr(
            np.fft, "irfft", lambda *args: alive.append(refs[0]() is not None) or irfft(*args)
        )
        tracemalloc.start()
        try:
            characters._odd_correlation(ctx, fold(), psi, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert alive == [False]
        assert peak < 21 * q


@pytest.mark.parametrize("q", [3, 101, 1_000_003])
@pytest.mark.parametrize("sieve", [coeff_a_floats, coeff_b_floats])
def test_inverse_2n_terms_are_the_exponents_of_inv_2n(q, sieve):
    # every nonzero term n <= N coprime to q, in order, with inv(2n) = g^e
    ctx, N = build_context(q), max(1000, q)
    weights, e = characters._inverse_2n_terms(ctx, sieve, N)
    coeffs = sieve(N)
    ns = np.nonzero(coeffs)[0]
    ns = ns[ns % q != 0]
    assert np.array_equal(weights, coeffs[ns])
    assert e.dtype == np.int32 and e.shape == ns.shape
    assert 0 <= e.min() and e.max() < q - 1
    assert np.all(ctx.powers[e].astype(np.int64) * (2 * ns % q) % q == 1)


@pytest.mark.parametrize("q", [101, 1009, 10007])
def test_a_chi_matches_the_bins_by_ind_2n(q):
    # the former form: the a-weights binned by +ind(2n), so that
    # A_{q,chi_j} = C_q sum_m W_m e(jm/(q-1)) with no conjugate
    table, M = sw.build_table(q), q - 1
    a = coeff_a_floats(table.cutoff)
    ns = np.nonzero(a)[0]
    ns = ns[ns % q != 0]
    W = np.bincount(table.context.index[2 * ns % q], weights=a[ns], minlength=M)
    c_q, _ = constant_C(excluded_prime=q)
    expected = c_q * characters._odd_dft(W[: M // 2] - W[M // 2 :], characters._twiddle(q))
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(table.a_chi - expected)) <= 2e-15 * scale


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
        # 34 bytes per residue, past the cap at q = 2000003
        with pytest.raises(ResourceLimitError, match="68000102 bytes"):
            sw.build_table(2_000_003)

    def test_peak_within_the_stated_bytes_per_residue(self):
        # at q ~ 1e6, where the figure is measured: at q ~ 1e5 the a-series
        # terms (16 bytes each, 1.1 MB) add 10 bytes per residue
        q = 1_000_003
        sw.spectrum_all(101)  # the memos now hold another modulus
        tracemalloc.start()
        try:
            sw.build_table(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < characters._TABLE_BYTES_PER_RESIDUE * q

    def test_q3_l_values(self, monkeypatch):
        monkeypatch.setattr(characters, "A_SERIES_CUTOFF", 100)
        t = sw.build_table(3)
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
        assert half.half.shape == ((q - 1) // 2,)
        S = _odd_over_group_scatter(half.context, half.half, 0.0)
        assert S.shape == (q,) and S.dtype == np.float64
        assert np.max(np.abs(S - full.bias_sums)) / (q - 1) <= 1e-13
        assert S[0] == 0.0
        assert np.array_equal(S[q - np.arange(1, q)], -S[1:])
        assert 0.0 <= half.residual <= 1e-12 * max(1.0, abs(S[1]) / (q - 1))
        ck = sw.ck_all(q, "characters", half)
        assert np.array_equal(ck.values[1:], S[1:] * (1.0 / (q - 1)))

    def test_bias_sums_match_character_definition_mp(self, monkeypatch):
        # the 30-digit oracle from the character definition, at q = 101 with
        # a(n) to 1000, every residue; on the C scale the gap is ~1e-15
        q, cutoff = 101, 1000
        monkeypatch.setattr(characters, "A_SERIES_CUTOFF", cutoff)
        table = sw.build_table(q)
        assert table.cutoff == cutoff
        exact = _character_sums_mp(q, cutoff, range(1, q))
        S = _odd_over_group_scatter(table.context, table.half, 0.0)
        for a, value in zip(range(1, q), exact):
            assert abs(value.imag) / (q - 1) <= 1e-25
            assert abs(S[a] - float(value.real)) / (q - 1) <= 1e-14

    def test_perturbed_correlation_fails_the_residual(self, monkeypatch):
        # a shift of 1e-9 in the table's correlation is ~4e-9 on the C scale,
        # far past the 1e-12 budget of the direct S(1); the spectrum's
        # correlation (dedekind's binding) is left exact
        correlation = characters._odd_correlation
        monkeypatch.setattr(
            characters,
            "_odd_correlation",
            lambda ctx, f, h, scale: correlation(ctx, f, h, scale) + scale * 1e-9,
        )
        with pytest.raises(ArithmeticError, match="residual"):
            sw.build_table(101)

    @pytest.mark.parametrize("a", [0, 101, -202])
    def test_zero_residue_is_refused(self, table_101, a):
        # unchecked, the residue 0 would read S(0) = 0 and, through the
        # sentinel index[0] = -1, chi_j(g^-1)
        with pytest.raises(ValueError):
            sw.c2_pair(101, a, 1, table_101)
        with pytest.raises(ValueError):
            sw.c2_pair(101, 1, a, table_101)
        with pytest.raises(ValueError):
            table_101.chi_bar(a)

    def test_principal_sawtooth_sum_is_zero(self):
        # sum_a psi(a/q) = 0, so the principal row vanishes before zeroing too
        q = 101
        raw = -sum(psi(a / q) for a in range(1, q))
        assert raw == pytest.approx(0.0, abs=1e-12)

    def test_even_l_zero_direct_small_q(self):
        # direct check of the finite sum for one even character mod 7
        q = 7
        ctx = build_context(q)
        chi = np.zeros(q, dtype=complex)
        for a in range(1, q):
            chi[a] = np.exp(2j * math.pi * 2 * ctx.index[a] / (q - 1))  # j = 2, even
        val = -sum(chi[a] * psi(a / q) for a in range(1, q))
        assert abs(val) <= 1e-14


class TestCharValue:
    def test_at_generator(self, table_101):
        g = int(table_101.context.powers[1])
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
    def test_q3_closed_form(self, monkeypatch):
        monkeypatch.setattr(characters, "A_SERIES_CUTOFF", 100)
        t = sw.build_table(3)
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
        # 2 N^-0.45 at N = 1e5, a fitted figure held by this test alone
        full = _full_table(10007)
        assert abs(full.a_chi[0] - 1.0) <= 2.0 * 100_000 ** (-0.45)

    def test_a_chi_tail_shrinks(self, monkeypatch):
        def table(cutoff):
            monkeypatch.setattr(characters, "A_SERIES_CUTOFF", cutoff)
            return sw.build_table(101)

        t1, t4, t16 = table(2000), table(8000), table(32000)
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
