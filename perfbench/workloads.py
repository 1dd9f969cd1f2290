"""Seeded inputs, measured operations and cross-route checks of the four
workloads.  Shared by the orchestrator (``run.py``), the workload child
(``worker.py``) and the self-test.

An operation fails if it raises, exits non-zero, or fails one of its checks.
Each check reuses a tolerance the test suite already uses.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_CLI = HERE / "expected_cli.json"

WORKLOADS = ("cli-readme", "large-q", "totient", "exact")
IN_PROCESS = ("large-q", "totient", "exact")

# Benchmark sizes and the toy sizes of the self-test.  In the large-q band
# every prime keeps the chirp-z FFT length at 2^21, and only primes whose
# q - 1 has a prime factor above sqrt(q - 1) are drawn (see _fft_band).
SIZES = {
    "full": {
        "band": (1_000_003, 1_048_573),
        "primes_per_pass": 2,
        "y": 10_000_000,
        "census_x": 10_000_000,
        "pairs": 20_000,
        "pair_k": 1_000_000,
        "check_pairs": 200,
        "check_k": 2000,
        "moments": (("R", 40), ("C", 60), ("s", 30)),
        "prelimit": (4, 11),
        "lattice": ((2, 3, 5, 7), 40),
    },
    "toy": {
        "band": (101, 199),
        "primes_per_pass": 2,
        "y": 10_000,
        "census_x": 10_000,
        "pairs": 200,
        "pair_k": 2000,
        "check_pairs": 20,
        "check_k": 200,
        "moments": (("R", 10), ("C", 10), ("s", 10)),
        "prelimit": (4, 3),
        "lattice": ((2, 3, 5, 7), 40),
    },
}

CENSUS_MODULI = (3, 5, 7, 11, 13)
CHECK_POINTS = 5

# Seeded residue flags of the README commands.  Every choice is
# non-degenerate (a != b, residues coprime to q, m != 0 mod q) and has its
# output recorded in expected_cli.json.  Size flags never change.
CLI_PAIRS = ((1, 2), (3, 50), (7, 96), (10, 11))
CLI_PATTERNS = ((1, 2, 1), (1, 2, 3), (5, 7, 5), (2, 9, 100))
CLI_SHIFTS = (60, 30, 90, 120)
CLI_REPORT_PATTERNS = ((1, 1), (1, 2), (2, 1), (2, 2))
# Commands of the self-test: fast ones that do not compute the constant C.
TOY_CLI = ("dedekind", "spectrum", "bcorr", "moments", "primes --x 1000000 --q 3 --r 2")

DEDEKIND_README = ("dedekind", "--q", "101", "--a", "7")
DEDEKIND_VALUE = "104/101"

# Relative to the largest magnitude of the column (CSV) or key (JSON):
# admits the 1.7e-10 relative correction to C of ROADMAP item 2.
CLI_RTOL = 1e-8


def _csv(items) -> str:
    return ",".join(str(v) for v in items)


def _readme_commands(pair, pattern, shift, report) -> list[str]:
    a, b = pair
    return [
        " ".join(DEDEKIND_README),
        "spectrum --q 1009",
        "ck --q 1009 --method characters",
        "ck --q 1009 --method truncated --N 200",
        f"c2 --q 101 --a {a} --b {b}",
        f"c2 --q 101 --pattern {_csv(pattern)}",
        "bcorr --moduli 2,3",
        "bcorr --moduli 2,3 --method lattice --K 200",
        "bcorr --moduli 2,3 --method discrete --q 1009",
        "moments --kind R --ell 2 --B 10000",
        "dist --source spectrum --q 10007 --stat summary",
        "dist --source ck --q 10007 --stat ecdf",
        f"dist --source ck --q 100003 --stat almost-period --m {shift}",
        "phi --y 1000000 --stat moments --ell 2",
        "phi --y 1000000 --stat hist",
        "primes --x 1000000 --q 3 --r 2",
        f"primes --x 1000000 --q 3 --report-pattern {_csv(report)}",
    ]


def cli_commands(seed: int, rep: int = 0, sizes: str = "full") -> list[list[str]]:
    """The 17 README commands in a seeded order with seeded residue flags."""
    rng = random.Random(f"cli-readme:{seed}:{rep}")
    text = _readme_commands(
        rng.choice(CLI_PAIRS),
        rng.choice(CLI_PATTERNS),
        rng.choice(CLI_SHIFTS),
        rng.choice(CLI_REPORT_PATTERNS),
    )
    if sizes == "toy":
        text = [t for t in text if t.startswith(TOY_CLI)]
    rng.shuffle(text)
    return [t.split() for t in text]


def all_cli_variants() -> list[list[str]]:
    """Every command any seed can produce: the ones expected_cli.json holds."""
    variants = set()
    for choice in zip(CLI_PAIRS, CLI_PATTERNS, CLI_SHIFTS, CLI_REPORT_PATTERNS):
        variants.update(_readme_commands(*choice))
    return [t.split() for t in sorted(variants)]


# ---------------------------------------------------------------------------
# CLI output comparison


def _number(token):
    if isinstance(token, bool):
        return None
    if isinstance(token, (int, float)):
        return float(token)
    if not isinstance(token, str):
        return None
    try:
        return float(Fraction(token))
    except (ValueError, ZeroDivisionError):
        return None


def _flatten(obj, path: str, out: dict) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(value, f"{path}.{key}" if path else key, out)
    elif isinstance(obj, list):
        for value in obj:
            _flatten(value, path + "[]", out)
    else:
        value = _number(obj)
        if value is not None:
            out.setdefault(path, []).append(value)


def parse_cli_output(text: str) -> dict[str, list[float]]:
    """Numeric values of a command's output grouped by CSV column or JSON
    key; the CSV '#' lines and the JSON 'meta' block are left out."""
    out: dict[str, list[float]] = {}
    if text.lstrip().startswith("{"):
        record = json.loads(text)
        record.pop("meta", None)
        _flatten(record, "", out)
        return out
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return out
    header = lines[0].split(",")
    for line in lines[1:]:
        for name, token in zip(header, line.split(",")):
            value = _number(token)
            if value is not None:
                out.setdefault(name, []).append(value)
    return out


def compare_cli_output(expected: dict, actual: dict) -> str | None:
    """None when every recorded value is matched, else the first mismatch."""
    for key, want in expected.items():
        got = actual.get(key)
        if got is None or len(got) != len(want):
            return f"{key}: {0 if got is None else len(got)} values, expected {len(want)}"
        scale = max((abs(v) for v in want if not math.isnan(v)), default=0.0)
        for i, (w, g) in enumerate(zip(want, got)):
            if math.isnan(w) and math.isnan(g):
                continue
            if not abs(g - w) <= CLI_RTOL * scale:
                return f"{key}[{i}]: {g!r}, expected {w!r}"
    return None


def op_record(name: str, seconds: float, checks, error) -> dict:
    """One measured operation as a result records it."""
    return {
        "name": name,
        "seconds": seconds,
        "ok": bool(error is None and all(ok for _, ok, _ in checks)),
        "error": error,
        "checks": [{"name": c, "ok": bool(ok), "detail": d} for c, ok, d in checks],
    }


def check_cli(argv: list[str], returncode: int, stdout: str, expected: dict) -> list:
    """Checks of one README command: exit code, then its recorded values."""
    checks = [("exit code 0", returncode == 0, f"exit code {returncode}")]
    if returncode != 0:
        return checks
    if tuple(argv) == DEDEKIND_README:
        value = stdout.strip()
        checks.append(("prints 104/101", value == DEDEKIND_VALUE, value))
    key = " ".join(argv)
    want = expected.get(key)
    if want is None:
        checks.append(("recorded values", False, f"no recorded values for {key!r}"))
    else:
        try:
            problem = compare_cli_output(want, parse_cli_output(stdout))
        except ValueError as exc:
            problem = f"unparseable output: {exc}"
        checks.append(("recorded values", problem is None, problem or ""))
    return checks


# ---------------------------------------------------------------------------
# seeded inputs of the in-process workloads


def _primes_between(lo: int, hi: int) -> list[int]:
    def prime(n: int) -> bool:
        if n < 2 or n % 2 == 0:
            return n == 2
        return all(n % d for d in range(3, math.isqrt(n) + 1, 2))

    return [n for n in range(lo, hi + 1) if prime(n)]


def _largest_prime_factor(n: int) -> int:
    largest, d = 1, 2
    while d * d <= n:
        while n % d == 0:
            largest, n = d, n // d
        d += 1
    return max(largest, n)


def _fft_band(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi] whose q - 1 has a prime factor p with
    p^2 > q - 1.  numpy's FFTs of length q - 1 (character tables, C(k))
    then all take the Bluestein path; with smaller factors their cost swings
    sixfold with the factorisation (0.07-0.45 s for one FFT at q ~ 1e6 on
    the machine of README.md's sizing baseline), and so would the
    workload's figures from seed to seed.  About 60% of the primes qualify."""
    return [q for q in _primes_between(lo, hi) if _largest_prime_factor(q - 1) ** 2 > q - 1]


def _digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()[:16]


def _coprime_pairs(rng: random.Random, count: int, k_below: int) -> list[tuple[int, int]]:
    pairs = []
    while len(pairs) < count:
        k = rng.randrange(2, k_below)
        h = rng.randrange(1, k)
        if math.gcd(h, k) == 1:
            pairs.append((h, k))
    return pairs


def inputs_for(workload: str, seed: int, rep: int, sizes: str = "full") -> dict:
    """The inputs of pass ``rep`` of a run with ``seed``.  Passes of one run
    get distinct inputs, so a cached whole result cannot pose as a gain."""
    size = SIZES[sizes]
    if workload == "large-q":
        band = _fft_band(*size["band"])
        random.Random(f"large-q:{seed}").shuffle(band)
        n = size["primes_per_pass"]
        qs = band[rep * n : (rep + 1) * n]
        rng = random.Random(f"large-q:{seed}:{rep}")
        points = [
            {
                "q": q,
                "t": [rng.randrange(1, q) for _ in range(CHECK_POINTS)],
                "k": [rng.randrange(1, q) for _ in range(CHECK_POINTS)],
            }
            for q in qs
        ]
        return {"primes": points}
    if workload == "totient":
        rng = random.Random(f"totient:{seed}:{rep}")
        return {"y": size["y"], "census_x": size["census_x"], "census_q": rng.choice(CENSUS_MODULI)}
    if workload == "exact":
        rng = random.Random(f"exact:{seed}:{rep}")
        pairs = _coprime_pairs(rng, size["pairs"], size["pair_k"])
        small = _coprime_pairs(rng, size["check_pairs"], size["check_k"])
        return {
            "pairs": pairs,
            "check_pairs": small,
            "moments": [list(m) for m in size["moments"]],
            "prelimit": list(size["prelimit"]),
            "lattice": [list(size["lattice"][0]), size["lattice"][1]],
        }
    raise ValueError(f"no in-process workload {workload!r}")


def describe_inputs(workload: str, inputs: dict) -> dict:
    """The inputs as recorded in a result: pair lists by count and digest."""
    if workload != "exact":
        return inputs
    out = dict(inputs)
    for key in ("pairs", "check_pairs"):
        pairs = inputs[key]
        out[key] = {
            "count": len(pairs),
            "k_max": max(k for _, k in pairs),
            "sha256_16": _digest(pairs),
        }
    return out


# ---------------------------------------------------------------------------
# set-up


def warm_up() -> None:
    """One small call per pipeline (q = 101, y = 1e4).  Fills the
    process-level caches: the constant C behind ``constant_C``, the a(n)/b(n)
    memos of ``foundations`` and the ``b_exact`` memo of ``correlations``."""
    import sawspec as sw
    from sawspec.distribution import histogram, summary

    spec = sw.spectrum_all(101)
    table = sw.build_table(101)
    vec = sw.ck_all(101, "characters", table=table)
    sw.c2_pattern(sw.Pattern(101, (1, 2, 1)), table)
    summary(sw.from_spectrum(spec))
    sw.almost_period_stat(sw.from_ck_vector(vec), 60)
    acc = sw.build_phi_accumulator(10_000)
    sw.rtilde_moment_exact(10_000, 2, acc)
    histogram(sw.make_distribution("R", sw.rtilde_samples(acc)))
    census = sw.pattern_census(10_000, 3, 2)
    sw.conjecture_report(10_000, 3, sw.Pattern(3, (1, 2)), sw.build_table(3), census)
    sw.dedekind_sum_pair(7, 101)
    sw.theoretical_moment("C", 4, 6)
    sw.continuous_model_moment_exact(2, 5)
    sw.moment_tuple_sum_exact(2, 5)
    sw.b_lattice_estimate((2, 3), 20)


# ---------------------------------------------------------------------------
# measured operations and their checks
#
# ``operations`` yields (name, run, check), one per step of the workload:
# ``run()`` is the timed call and returns what ``check(result)`` needs;
# ``check`` returns (name, ok, detail) triples and runs outside the timed
# region.


def _large_q_pipeline(q: int) -> dict:
    import sawspec as sw
    from sawspec.distribution import summary

    spectrum = sw.spectrum_all(q)
    summary(sw.from_spectrum(spectrum))
    table = sw.build_table(q)
    vec = sw.ck_all(q, "characters", table=table)
    dist = sw.from_ck_vector(vec)
    summary(dist)
    sw.almost_period_stat(dist, 60)
    sw.c2_pattern(sw.Pattern(q, (1, 2, 1)), table)
    return {"spectrum": spectrum.values, "table": table, "ck": vec.values}


def _exactly_odd(values) -> bool:
    import numpy as np

    v = np.asarray(values)[1:]
    return bool(np.array_equal(v, -v[::-1]))


def check_large_q(q: int, t_points, k_points, out: dict) -> list:
    import sawspec as sw

    spectrum, table, ck = out["spectrum"], out["table"], out["ck"]
    worst_s = max(
        abs(sw.spectrum_point_characters(q, t, table).imag - spectrum[t]) for t in t_points
    )
    worst_c = max(
        abs(sw.ck_point(q, k, "characters", table=table) - ck[k]) for k in k_points
    )
    return [
        ("spectrum_point_characters within 1e-8", worst_s <= 1e-8, f"worst {worst_s:.3g}"),
        ("ck_point(characters) within 1e-12", worst_c <= 1e-12, f"worst {worst_c:.3g}"),
        ("spectrum exactly odd", _exactly_odd(spectrum), ""),
        ("C(k) exactly odd", _exactly_odd(ck), ""),
    ]


def check_moments(moments) -> list:
    m1, m2 = moments
    target = 1.0 / (2.0 * math.pi**2)
    gap = abs(m2 - target) / target
    return [
        ("|mean| <= 0.01", abs(m1) <= 0.01, repr(m1)),
        ("second moment within 5% of 1/(2 pi^2)", gap <= 0.05, f"rel gap {gap:.3g}"),
    ]


def check_histogram(y: int, counts) -> list:
    total = int(sum(counts))
    return [("histogram counts sum to y", total == y, f"{total} of {y}")]


def check_census(census) -> list:
    total = sum(census.counts.values())
    return [
        (
            "census windows sum to total_windows",
            total == census.total_windows,
            f"{total} vs {census.total_windows}",
        )
    ]


def check_reciprocity(small_pairs, small_values) -> list:
    from sawspec.dedekind import dedekind_sum_pair

    bad = [
        (h, k)
        for (h, k), v in zip(small_pairs, small_values)
        if dedekind_sum_pair(h, k, "direct") != v
    ]
    ok = not bad and len(small_values) == len(small_pairs)
    detail = f"{len(bad)} of {len(small_pairs)} pairs differ: {bad[:3]}"
    return [("reciprocity equals direct sum", ok, detail)]


def check_prelimit(sides) -> list:
    lhs, rhs = sides
    return [("pre-limit identity exact", isinstance(lhs, Fraction) and lhs == rhs, "")]


def check_lattice(moduli, estimate: float) -> list:
    import sawspec as sw

    gap = abs(estimate - float(sw.b_exact(tuple(moduli))))
    return [("lattice within 2e-3 of b_exact", gap <= 2e-3, f"gap {gap:.3g}")]


def operations(workload: str, inputs: dict):
    import sawspec as sw

    if workload == "large-q":
        for p in inputs["primes"]:
            q, ts, ks = p["q"], p["t"], p["k"]
            yield (
                f"prime {q}",
                lambda q=q: _large_q_pipeline(q),
                lambda out, q=q, ts=ts, ks=ks: check_large_q(q, ts, ks, out),
            )
    elif workload == "totient":
        from sawspec.distribution import histogram

        y, state = inputs["y"], {}

        def accumulate():
            state["acc"] = sw.build_phi_accumulator(y, sw.build_sieves(y))

        def samples_histogram():
            return histogram(sw.make_distribution("R", sw.rtilde_samples(state["acc"])))[0]

        def moments():
            return [sw.rtilde_moment_exact(y, ell, state["acc"]) for ell in (1, 2)]

        yield "build_sieves + build_phi_accumulator", accumulate, lambda out: []
        yield "rtilde_moment_exact l=1,2", moments, check_moments
        yield "rtilde_samples + histogram", samples_histogram, lambda c: check_histogram(y, c)
        x, cq = inputs["census_x"], inputs["census_q"]
        yield f"pattern_census q={cq}", lambda: sw.pattern_census(x, cq, 2), check_census
    elif workload == "exact":
        pairs, small = inputs["pairs"], inputs["check_pairs"]

        def reciprocity():
            for h, k in pairs:
                sw.dedekind_sum_pair(h, k)
            return [sw.dedekind_sum_pair(h, k) for h, k in small]

        yield (
            f"dedekind_sum_pair x{len(pairs) + len(small)}",
            reciprocity,
            lambda values: check_reciprocity(small, values),
        )
        yield (
            "theoretical_moment l=4 " + ", ".join(f"{kind} B={B}" for kind, B in inputs["moments"]),
            lambda: [sw.theoretical_moment(kind, 4, B) for kind, B in inputs["moments"]],
            lambda out: [],
        )
        ell, B = inputs["prelimit"]
        yield (
            f"pre-limit identity l={ell} B={B}",
            lambda: (sw.continuous_model_moment_exact(ell, B), sw.moment_tuple_sum_exact(ell, B)),
            check_prelimit,
        )
        moduli, K = inputs["lattice"]
        yield (
            f"b_lattice_estimate {tuple(moduli)} K={K}",
            lambda: sw.b_lattice_estimate(tuple(moduli), K),
            lambda est: check_lattice(moduli, est),
        )
    else:
        raise ValueError(f"no in-process workload {workload!r}")
