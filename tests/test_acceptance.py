"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figure (run with ``pytest -s`` to see them inline).

Criteria with runtime budgets time their own full pipeline, building every
ingredient inside the clock.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import sawspec as sw
from sawspec import distribution as dist
from sawspec.bias import Pattern

from oracles import extreme_report


def _report(n, ok, detail):
    print(f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_reciprocity_exact():
    t0 = time.perf_counter()
    checked = 0
    for q in range(2, 201):
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            fast = sw.dedekind_sum_pair(a, q)
            assert fast == sw.dedekind_sum_pair(a, q, "direct")
            target = Fraction(-1, 4) + (
                Fraction(a, q) + Fraction(q, a) + Fraction(1, a * q)
            ) / 12
            assert fast + sw.dedekind_sum_pair(q, a) == target
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        elapsed < 5.0,
        f"reciprocity + fast-vs-direct exact on {checked} coprime pairs "
        f"(q <= 200) in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_spectrum_triple_agreement():
    worst = {"dft": 0.0, "chars": 0.0, "trunc": 0.0}
    for q in (101, 199):
        naive = sw.spectrum_all(q, "naive")
        chirp = sw.spectrum_all(q, "chirp-z")
        worst["dft"] = max(
            worst["dft"], float(np.max(np.abs(naive.values - chirp.values)))
        )
        table = sw.build_table(q)
        x = q * q
        for t in range(1, q):
            ce = abs(sw.spectrum_point_characters(q, t, table).imag - naive.values[t])
            te = abs(sw.spectrum_point_truncated(q, t, x).imag - naive.values[t])
            worst["chars"] = max(worst["chars"], ce)
            worst["trunc"] = max(worst["trunc"], te * x / q)
    ok = worst["dft"] <= 1e-9 and worst["chars"] <= 1e-8 and worst["trunc"] <= 10.0
    _report(
        2,
        ok,
        f"q in {{101,199}}: naive-vs-chirpz {worst['dft']:.2e} (<=1e-9), "
        f"chars-vs-DFT {worst['chars']:.2e} (<=1e-8), "
        f"truncated (x/q)|err| {worst['trunc']:.3f} (<=10)",
    )


def test_criterion_03_correlation_ground_truths():
    assert sw.b_exact((1, 2)) == Fraction(1, 24)
    assert sw.b_exact((2, 3)) == Fraction(1, 72)
    assert sw.b_exact((1, 1, 1, 1)) == Fraction(1, 80)
    assert sw.b_exact((3, 1, 1, 1)) == Fraction(1, 240)
    for mods in ((1,), (2, 3, 5), (1, 1, 1), (3, 3, 5, 5, 7)):
        if len(mods) % 2 == 1:
            assert sw.b_exact(mods) == 0
    rng = np.random.default_rng(42)
    perms_checked = 0
    for _ in range(50):
        ell = int(rng.choice([2, 4]))
        mods = tuple(int(v) for v in rng.integers(1, 9, ell))
        ref = sw.b_exact(mods)
        assert sw.b_exact(tuple(rng.permutation(mods))) == ref
        perms_checked += 1
    _report(
        3,
        True,
        "exact values 1/24, 1/72, 1/80, 1/240; odd counts vanish; "
        f"permutation invariance on {perms_checked} random tuples",
    )


def test_criterion_04_discrete_correlation_scan():
    t0 = time.perf_counter()
    worst = 0.0
    tuples = 0
    for q in (101, 1009):
        for ell in (2, 4):
            for mods in itertools.product(range(1, 7), repeat=ell):
                K = 1
                for m in mods:
                    K *= m
                K //= min(mods)
                if K >= q / ell:
                    continue
                err = abs(sw.discrete_correlation(q, mods) - float(sw.b_exact(mods)))
                bound = 10.0 * (ell * K / q) * math.log(math.e * q / K)
                worst = max(worst, err / bound)
                tuples += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 60.0
    _report(
        4,
        ok,
        f"{tuples} tuples (moduli<=6, ell in {{2,4}}, q in {{101,1009}}): "
        f"worst err/bound {worst:.4f} (<=1), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_05_exact_prelimit_identity():
    for ell, B in ((2, 3), (2, 5), (4, 3)):
        lhs = sw.continuous_model_moment_exact(ell, B)
        rhs = sw.moment_tuple_sum_exact(ell, B)
        assert lhs == rhs, (ell, B)
    _report(
        5,
        True,
        "exact model-vs-tuple moment identity holds in rational arithmetic "
        "for (ell,B) in {(2,3),(2,5),(4,3)}",
    )


def test_criterion_06_moment_benchmarks():
    mR = sw.theoretical_moment("R", 2, 10**4).value
    mS = sw.theoretical_moment("s", 2, 10**4).value
    tR = 1.0 / (2.0 * math.pi**2)
    tS = 5.0 * math.pi**2 / 144.0
    relR = abs(mR - tR) / tR
    relS = abs(mS - tS) / tS
    odd_ok = all(
        sw.theoretical_moment(kind, ell, 200).value == 0.0
        for kind in ("C", "s", "R")
        for ell in (1, 3, 5)
    )
    ok = relR <= 0.01 and relS <= 0.005 and odd_ok
    _report(
        6,
        ok,
        f"M_R(2,1e4) rel err {relR:.2e} (<=1%), M_s(2,1e4) rel err "
        f"{relS:.2e} (<=0.5%), odd moments exactly 0: {odd_ok}",
    )


def test_criterion_07_empirical_vs_theoretical_q10007():
    t0 = time.perf_counter()
    q = 10007
    table = sw.build_table(q)
    vec = sw.ck_all(q, "characters", table=table)
    spec = sw.spectrum_all(q)
    emp_c = float(np.sum(vec.samples**2)) / q
    th_c = sw.theoretical_moment("C", 2, 1000).value
    rel_c = abs(emp_c - th_c) / th_c
    pis = -math.pi * spec.values[1:]
    emp_s = float(np.sum(pis**2)) / q
    th_s = 5.0 * math.pi**2 / 144.0
    rel_s = abs(emp_s - th_s) / th_s
    elapsed = time.perf_counter() - t0
    ok = rel_c <= 0.10 and rel_s <= 0.05 and elapsed < 120.0
    _report(
        7,
        ok,
        f"q=10007: C second moment rel gap {rel_c:.2e} (<=10%), spectrum "
        f"second moment rel gap {rel_s:.2e} (<=5%), {elapsed:.1f}s (< 2min)",
    )


def test_criterion_08_distribution_symmetry(ck_1009, ck_10007, spec_1009, spec_10007):
    grid = np.linspace(0.05, 3.5, 70)
    worst_sym = 0.0
    worst_odd = 0.0
    for q, vec, spec in ((1009, ck_1009, spec_1009), (10007, ck_10007, spec_10007)):
        for d in (dist.from_ck_vector(vec), dist.from_spectrum(spec)):
            sym = dist.symmetry_statistic(d, grid)
            assert sym <= 3.0 / math.sqrt(q), (q, d.label)
            worst_sym = max(worst_sym, sym * math.sqrt(q) / 3.0)
            moms = sw.empirical_moments(d.samples, 5)
            for ell in (1, 3, 5):
                scale = float(np.mean(np.abs(d.samples) ** ell))
                rel = abs(moms[ell - 1]) / scale
                assert rel <= 1e-12, (q, d.label, ell)
                worst_odd = max(worst_odd, rel)
    _report(
        8,
        True,
        f"symmetry sup (fraction of allowance) {worst_sym:.2e} at q in "
        f"{{1009,10007}} for both datasets; worst odd-moment rel {worst_odd:.1e} "
        "(<=1e-12)",
    )


def test_criterion_09_almost_periodicity_near_1e5():
    q = 100003
    table = sw.build_table(q)
    vec = sw.ck_all(q, "characters", table=table)
    d = dist.from_ck_vector(vec)
    s0 = dist.almost_period_stat(d, 0)
    s60 = dist.almost_period_stat(d, 60)
    s61 = dist.almost_period_stat(d, 61)
    ok = s0 == 0.0 and s60 <= s61 / 5.0
    _report(
        9,
        ok,
        f"q={q}: stat(0)={s0}, stat(60)={s60:.4f} <= stat(61)/5={s61 / 5:.4f} "
        f"(ratio {s61 / s60:.1f}x)",
    )


def test_criterion_10_truncation_mean_square(table_1009, ck_1009):
    q = 1009
    gaps = []
    for B in (50, 100, 200):
        trunc = sw.ck_all(q, "truncated", cutoff=B)
        gap = float(np.mean((ck_1009.samples - trunc.samples) ** 2))
        assert gap <= 10.0 / math.sqrt(B), B
        gaps.append(gap)
    ok = gaps[0] > gaps[1] > gaps[2]
    _report(
        10,
        ok,
        f"q=1009 two-route mean-square gaps {gaps[0]:.2e} > {gaps[1]:.2e} > "
        f"{gaps[2]:.2e}, all within 10/sqrt(B)",
    )


def test_criterion_11_totient_error_moments():
    t0 = time.perf_counter()
    sieves = sw.build_sieves(10**6)
    acc = sw.build_phi_accumulator(10**6, sieves)
    m1 = sw.rtilde_moment_exact(10**6, 1, acc)
    m2 = sw.rtilde_moment_exact(10**6, 2, acc)
    target = 1.0 / (2.0 * math.pi**2)
    rel2 = abs(m2 - target) / target
    elapsed = time.perf_counter() - t0
    ok = abs(m1) <= 0.01 and rel2 <= 0.05 and elapsed < 30.0
    _report(
        11,
        ok,
        f"y=1e6: |mean| {abs(m1):.2e} (<=0.01), second moment rel gap "
        f"{rel2:.2e} (<=5%), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_12_prime_race_direction():
    hand = sw.pattern_census(30, 3, 2)
    exact = {
        (2, 1): 4,
        (1, 2): 3,
        (2, 2): 1,
        (1, 1): 0,
    }
    for key, val in exact.items():
        assert hand.count(key) == val, key
    big = sw.pattern_census(10**6, 3, 2)
    ok = big.count((1, 2)) > big.count((1, 1)) and big.count((2, 1)) > big.count(
        (2, 2)
    )
    _report(
        12,
        ok,
        f"x=30 census matches the hand enumeration exactly; x=1e6: "
        f"(1,2)={big.count((1, 2))} > (1,1)={big.count((1, 1))}, "
        f"(2,1)={big.count((2, 1))} > (2,2)={big.count((2, 2))}",
    )


def test_criterion_13_tail_and_extreme_reports(ck_10007):
    d = dist.from_ck_vector(ck_10007)
    xs = (0.5, 1.0, 1.5, 2.0, 2.5)
    upper, lower = dist.tail_frequency(d, xs)
    mono = all(a >= b for a, b in zip(upper, upper[1:])) and all(
        a >= b for a, b in zip(lower, lower[1:])
    )
    rep = extreme_report(d, 10007)
    present = all(
        k in rep for k in ("min", "argmin", "max", "argmax", "max_over_loglog_scale")
    )
    ok = mono and present and rep["max_over_loglog_scale"] > 0
    _report(
        13,
        ok,
        f"tail tables generated and decay-monotone; extreme report ratio "
        f"{rep['max_over_loglog_scale']:.3f} (informational, no constant asserted)",
    )
