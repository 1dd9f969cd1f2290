"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Run from the checkout root.  Runs every workload path, untraced and traced,
at q ~ 101, y = 1e4 and a subset of the README commands, and confirms that

- every operation passes and every listed check runs;
- a deliberately wrong value fails its check, and a README command that
  raises past ``cli.main`` fails;
- an in-process pass's ``peak_rss_mb`` leaves out the warm-up's sieve;
- the spans find every binding of the wrapped functions;
- traced self times are >= 0 and add up to the spans' wall time within
  ``trace.overhead_s``.

Prints one line per confirmation; exits non-zero on the first failure.
"""

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import run
import spans
import worker
import workloads

ROOT = Path.cwd()
SEED = 7
# The warm-up's constant_C sieve alone reaches about 492 MB; a toy pass
# stays far below.
WARM_UP_SIEVE_MB = 300

# Checks each workload must run at least once.
EXPECTED_CHECKS = {
    "cli-readme": {"exit code 0", "prints 104/101", "recorded values"},
    "large-q": {
        "spectrum_point_characters within 1e-8",
        "ck_point(characters) within 1e-12",
        "spectrum exactly odd",
        "C(k) exactly odd",
    },
    "totient": {
        "|mean| <= 0.01",
        "second moment within 5% of 1/(2 pi^2)",
        "census windows sum to total_windows",
    },
    "exact": {
        "reciprocity equals direct sum",
        "pre-limit identity exact",
        "lattice within 2e-3 of b_exact",
    },
}


def confirm(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def check_names(passes) -> set:
    names = set()
    for p in passes:
        for op in p["ops"]:
            names.update(c["name"] for c in op["checks"])
    return names


def failing(checks) -> bool:
    return not workloads.op_record("wrong value", 0.0, checks, None)["ok"]


def untraced(workload: str) -> None:
    summary = run.run(ROOT, workload, SEED, 0.0, trace=False, sizes="toy")
    result = summary["result"]
    confirm(
        result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
        f"{workload}: {result['failed']} of {result['attempted']} operations failed",
    )
    missing = EXPECTED_CHECKS[workload] - check_names(summary["passes"])
    confirm(not missing, f"{workload}: every listed check ran (missing {sorted(missing)})")
    metrics = result["metrics"]
    confirm(
        all(m["value"] > 0 for m in metrics.values()),
        f"{workload}: end-to-end metrics positive {[round(m['value'], 3) for m in metrics.values()]}",
    )
    if workload != "cli-readme":
        peak = metrics["peak_rss_mb"]["value"]
        confirm(
            peak < WARM_UP_SIEVE_MB,
            f"{workload}: peak_rss_mb {peak:.0f} MB leaves out the warm-up's constant_C sieve",
        )


def traced(workload: str) -> None:
    summary = run.run(ROOT, workload, SEED, 0.0, trace=True, sizes="toy")
    confirm(summary["result"]["correct"], f"{workload}: traced run correct")
    plain, traced_pass = summary["passes"]
    report = traced_pass["trace"]["spans"]
    overhead = abs(traced_pass["wall_s"] - plain["wall_s"])
    selfs = [st["self_s"] for st in report.values()]
    confirm(min(selfs) >= -1e-9, f"{workload}: {len(selfs)} span self times >= 0")
    span_wall = report["perfbench.op"]["total_s"]
    confirm(
        abs(sum(selfs) - span_wall) <= overhead + 1e-6,
        f"{workload}: self times sum to the span wall {span_wall:.4f} s "
        f"within trace.overhead_s {overhead:.4f} s",
    )
    if workload != "cli-readme":
        confirm(
            abs(span_wall - traced_pass["wall_s"]) <= overhead + 1e-3,
            f"{workload}: span wall matches the traced pass wall {traced_pass['wall_s']:.4f} s",
        )
    metrics = summary["result"]["metrics"]
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    confirm(set(metrics) == names, f"{workload}: every per-layer metric reported")


def binding_sites() -> None:
    import sawspec
    import sawspec.bias
    import sawspec.characters
    import sawspec.cli
    import sawspec.foundations
    import sawspec.moments

    names = spans.install(spans.Tracer())
    confirm(not spans.unwrapped_sites(), f"{len(names)} public functions wrapped at every binding")
    sites = [
        sawspec.constant_C,
        sawspec.foundations.constant_C,
        sawspec.characters.constant_C,
        sawspec.bias.constant_C,
        sawspec.moments.constant_C,
    ]
    confirm(
        all(getattr(s, "__perfbench_span__", None) == "foundations.constant_C" for s in sites)
        and len({id(s) for s in sites}) == 1,
        "constant_C has one wrapper in foundations, characters, bias, moments and the package",
    )
    confirm(
        getattr(sawspec.cli.build_table, "__perfbench_span__", None) == "characters.build_table",
        "the names cli imports are wrapped",
    )


def wrong_values() -> None:
    expected = run.Bench(ROOT, SEED).expected
    confirm(
        failing(workloads.check_cli(list(workloads.DEDEKIND_README), 0, "105/101\n", expected)),
        "cli-readme: a wrong Dedekind sum fails",
    )
    argv = "bcorr --moduli 2,3 --method lattice --K 200".split()
    good = '{"moduli": [2, 3], "value": 0.0137619223795, "K": 200}'
    confirm(not failing(workloads.check_cli(argv, 0, good, expected)), "cli-readme: the recorded value passes")
    confirm(
        failing(workloads.check_cli(argv, 0, good.replace("0.0137619223795", "0.0137619"), expected)),
        "cli-readme: a value off by 2e-6 relative fails",
    )
    confirm(failing(workloads.check_cli(argv, 1, "", expected)), "cli-readme: a non-zero exit fails")
    import sawspec.cli

    def broken_main(argv):
        raise TypeError("deliberate")

    real_main, sawspec.cli.main = sawspec.cli.main, broken_main
    try:
        record = worker.run_cli(argparse.Namespace(trace=False, spawned=0.0, argv=argv))
    finally:
        sawspec.cli.main = real_main
    confirm(
        record["returncode"] == 1 and "TypeError: deliberate" in record["stderr"],
        "cli-readme: a command raising past cli.main exits 1 with its traceback",
    )

    import sawspec as sw

    q = 101
    spectrum = sw.spectrum_all(q)
    table = sw.build_table(q)
    ck = sw.ck_all(q, "characters", table=table)
    out = {"spectrum": spectrum.values, "table": table, "ck": ck.values}
    confirm(not failing(workloads.check_large_q(q, [1, 5], [2, 7], out)), "large-q: the true values pass")
    bad = spectrum.values.copy()
    bad[5] += 1e-6
    confirm(
        failing(workloads.check_large_q(q, [1, 5], [2, 7], dict(out, spectrum=bad))),
        "large-q: a spectrum value off by 1e-6 fails",
    )
    bad = ck.values.copy()
    bad[q - 3] = math.nextafter(bad[q - 3], math.inf)
    confirm(
        failing(workloads.check_large_q(q, [1], [2], dict(out, ck=bad))),
        "large-q: C(k) off by one ulp from exact oddness fails",
    )
    target = 1.0 / (2 * math.pi**2)
    confirm(not failing(workloads.check_moments((0.0, target))), "totient: true moments pass")
    confirm(failing(workloads.check_moments((0.02, target))), "totient: a mean of 0.02 fails")
    confirm(failing(workloads.check_moments((0.0, 1.06 * target))), "totient: a second moment 6% off fails")
    confirm(failing(workloads.check_histogram(10, [3, 3, 3])), "totient: a histogram losing a sample fails")
    census = sw.pattern_census(10_000, 3, 2)
    confirm(not failing(workloads.check_census(census)), "totient: the true census passes")
    broken = sw.PatternCensus(census.x, 3, 2, census.counts, census.total_windows + 1)
    confirm(failing(workloads.check_census(broken)), "totient: a census window miscount fails")
    pairs = [(3, 7), (5, 11)]
    values = [sw.dedekind_sum_pair(h, k) for h, k in pairs]
    confirm(not failing(workloads.check_reciprocity(pairs, values)), "exact: the true Dedekind sums pass")
    confirm(
        failing(workloads.check_reciprocity(pairs, [values[0], values[1] + Fraction(1, 10**12)])),
        "exact: a Dedekind sum off by 1e-12 fails",
    )
    lhs = sw.continuous_model_moment_exact(4, 3)
    confirm(failing(workloads.check_prelimit((lhs, lhs + Fraction(1, 10**30)))), "exact: a pre-limit gap of 1e-30 fails")
    confirm(
        failing(workloads.check_lattice((2, 3, 5, 7), float(sw.b_exact((2, 3, 5, 7))) + 3e-3)),
        "exact: a lattice estimate 3e-3 off fails",
    )


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    binding_sites()
    wrong_values()
    for workload in workloads.WORKLOADS:
        untraced(workload)
        traced(workload)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
