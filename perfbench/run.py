"""The sawspec benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/`` and
``BENCHMARK.json``).  Workloads are closed loop with one client, one process
at a time:

    cli-readme  the 17 README commands, each in a fresh process
    large-q     two seeded primes q ~ 1e6: spectrum, table, C(k), c2
    totient     y = 1e7: sieves, accumulator, Rt moments, histogram, census
    exact       Fraction work: reciprocity, tuple-sum moments, pre-limit
                identity, lattice sum

Every pass of an in-process workload runs in a fresh ``worker.py`` child,
which sets up and forks the measured pass, so ``peak_rss_mb`` is that of the
operations and not of the warm-up.
Passes repeat, with distinct seeded inputs, until ``--seconds`` of measured
operations have run (at most ``MAX_PASSES``).  Set-up is timed in separate
fresh processes as well, at least ``SETUP_SAMPLES`` times a run.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs one untraced and one traced pass on the same inputs and prints the
per-layer metrics; their wall-time difference is ``trace.overhead_s``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the metrics by name and unit, the failed operations, the exact inputs and the
machine.  The exit code is 0 only if every operation passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
MAX_PASSES = 5
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # the whole run, children included


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# children


THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root: Path) -> dict:
    """Environment of every child: the checkout's ``src`` on the path and
    BLAS/OpenMP threads capped at the number of usable cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    cap = str(len(os.sched_getaffinity(0)))
    for name in THREAD_CAPS:
        env[name] = cap
    return env


class Child:
    """One finished child process: exit code, output, and wall time from just
    before its start to its exit.  ``{spawned}`` in argv is replaced by that
    start time, so the child can time its own start-up."""

    def __init__(self, argv: list[str], env: dict, deadline: float):
        spawned = time.monotonic()
        if spawned >= deadline:
            raise BenchError("run deadline passed")
        argv = [repr(spawned) if a == "{spawned}" else a for a in argv]
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            start_new_session=True,
        )
        try:
            self.stdout, self.stderr = proc.communicate(timeout=deadline - spawned)
        except subprocess.TimeoutExpired as exc:
            # the worker's forked pass is in its process group too; the pipes
            # close only when both have ended
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"run deadline passed in {' '.join(argv[1:4])}") from exc
        self.wall_s = time.monotonic() - spawned
        self.returncode = proc.returncode

    def json(self) -> dict:
        if self.returncode != 0 or not self.stdout.strip():
            raise BenchError(
                f"child exited {self.returncode}: {self.stderr.strip()[-2000:]}"
            )
        return json.loads(self.stdout.strip().splitlines()[-1])


class Bench:
    def __init__(self, root: Path, seed: int, sizes: str = "full"):
        self.seed, self.sizes = seed, sizes
        self.env = child_env(root)
        self.deadline = time.monotonic() + DEADLINE_S
        self.expected = json.loads(workloads.EXPECTED_CLI.read_text())

    def _worker(self, mode: str, *args: str) -> Child:
        argv = [sys.executable, str(WORKER), mode, "--spawned", "{spawned}", *args]
        return Child(argv, self.env, self.deadline)

    def setup_probe(self) -> float:
        return self._worker("setup").json()["setup_s"]

    def cli_pass(self, rep: int, trace: bool) -> dict:
        """The README commands, each a fresh ``worker.py cli`` process running
        ``sawspec.cli.main(argv)``, as the ``sawspec`` entry point does."""
        ops, reports = [], []
        peak = start_s = 0.0
        for argv in workloads.cli_commands(self.seed, rep, self.sizes):
            child = self._worker("cli", "--trace", str(int(trace)), "--", *argv)
            record = child.json()
            returncode = record["returncode"]
            checks = workloads.check_cli(argv, returncode, record["stdout"], self.expected)
            error = None if returncode == 0 else record["stderr"].strip()[-500:]
            ops.append(workloads.op_record(" ".join(argv), child.wall_s, checks, error))
            peak = max(peak, record["peak_rss_mb"])
            start_s += record["process_start_s"]
            reports.append(record["trace"])
        return {
            "ops": ops,
            "wall_s": sum(op["seconds"] for op in ops),
            "peak_rss_mb": peak,
            "process_start_s": start_s,
            "trace": _merge_reports(reports) if trace else None,
            "inputs": {"commands": [op["name"] for op in ops]},
        }

    def worker_pass(self, workload: str, rep: int, trace: bool) -> dict:
        child = self._worker(
            "pass", "--workload", workload, "--seed", str(self.seed), "--rep", str(rep),
            "--sizes", self.sizes, "--trace", str(int(trace)),
        )
        return child.json()

    def one_pass(self, workload: str, rep: int, trace: bool = False) -> dict:
        if workload == "cli-readme":
            return self.cli_pass(rep, trace)
        return self.worker_pass(workload, rep, trace)


def _merge_reports(reports: list[dict]) -> dict:
    """Span statistics of several traced processes, added up; computed
    counts combine as their definition says (sums, or the largest)."""
    merged: dict = {"spans": {}, "computed": {}}
    for report in reports:
        for name, st in report["spans"].items():
            into = merged["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += st[key]
        for name, value in report["computed"].items():
            combine = spans.COMPUTED[name][1]
            merged["computed"][name] = combine((merged["computed"].get(name, 0), value))
    return merged


# ---------------------------------------------------------------------------
# metrics


def end_to_end(bench: Bench, workload: str, seconds: float):
    passes, setups = [], []
    while True:
        record = bench.one_pass(workload, len(passes))
        passes.append(record)
        if "setup_s" in record:
            setups.append(record["setup_s"])
        if len(passes) == MAX_PASSES or sum(p["wall_s"] for p in passes) >= seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench.setup_probe())
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "op_max_s": [max(op["seconds"] for op in p["ops"]) for p in passes],
        "setup_s": setups,
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return metrics, samples, passes


def per_layer(bench: Bench, workload: str, names: list[str]):
    """One untraced and one traced pass on the same inputs."""
    plain = bench.one_pass(workload, 0, trace=False)
    traced = bench.one_pass(workload, 0, trace=True)
    report = traced["trace"]
    values = {
        name: layer_value(name, report["spans"], report["computed"], traced, plain)
        for name in names
    }
    return values, [plain, traced]


def layer_value(name: str, spans_: dict, computed: dict, traced: dict, plain: dict):
    """A per-layer metric by its name:
    ``<layer>.<function>.self_s|calls`` one function's spans,
    ``<layer>.self_s`` all spans of a layer,
    ``cli.process_start_s`` interpreter start of the pass's processes,
    ``trace.glue_s`` time in the measured operations outside any sawspec span,
    ``trace.overhead_s`` traced minus untraced pass wall time,
    and the counts computed from call arguments (spans.COMPUTED)."""
    if name in spans.COMPUTED:
        return computed.get(name, 0)
    if name == "cli.process_start_s":
        return traced["process_start_s"]
    if name == "trace.overhead_s":
        return traced["wall_s"] - plain["wall_s"]
    if name == "trace.glue_s":
        return spans_.get("perfbench.op", {}).get("self_s", 0.0)
    head, field = name.rsplit(".", 1)
    if "." in head:
        st = spans_.get(head, {"calls": 0, "self_s": 0.0})
        return st[field]
    if field != "self_s":
        raise BenchError(f"unknown per-layer metric {name!r}")
    return sum((st["self_s"] for span, st in spans_.items() if span.startswith(head + ".")), 0.0)


# ---------------------------------------------------------------------------
# machine facts


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts(env: dict) -> dict:
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = size
    ram = None
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            ram = f"{int(line.split()[1]) // 1024} MiB"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or None,
        "caches_per_cpu0": caches,
        "ram": ram,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_caps": {name: env[name] for name in THREAD_CAPS},
    }


# ---------------------------------------------------------------------------
# entry point


def load_contract(root: Path) -> dict:
    contract = json.loads((root / "BENCHMARK.json").read_text())
    return {
        "end_to_end": [(m["name"], m["unit"]) for m in contract["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in contract["per_layer"]],
    }


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool, sizes: str = "full") -> dict:
    """One benchmark run; returns the summary with the result object."""
    contract = load_contract(root)
    bench = Bench(root, seed, sizes)
    if trace:
        names = contract["per_layer"]
        values, passes = per_layer(bench, workload, [n for n, _ in names])
        samples = None
    else:
        names = contract["end_to_end"]
        values, samples, passes = end_to_end(bench, workload, seconds)
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op["ok"]]
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    return {
        "result": result,
        "samples": samples,
        "failures": failed,
        "passes": passes,
        "inputs": [p["inputs"] for p in passes],
        "machine": machine_facts(bench.env),
    }


def print_summary(workload: str, seed: int, trace: bool, summary: dict) -> None:
    result = summary["result"]
    mode = "traced" if trace else "untraced"
    print(f"workload {workload}, seed {seed}, {mode}, {len(summary['passes'])} passes"
          " (closed loop, one client)")
    for name, m in result["metrics"].items():
        value = m["value"]
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        line = f"  {name:<48} {shown} {m['unit']}"
        if summary["samples"] and name in summary["samples"]:
            vals = summary["samples"][name]
            line += f"   median of {len(vals)}: " + ", ".join(f"{v:.4g}" for v in vals)
        print(line)
    print(f"  {'failed_ops':<48} {result['failed']:>14} of {result['attempted']} operations")
    for op in summary["failures"]:
        bad = [c for c in op["checks"] if not c["ok"]]
        print(f"  FAILED {op['name']}: {op['error'] or bad}")
    print(json.dumps({"inputs": summary["inputs"], "machine": summary["machine"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "sawspec" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("run.py: run from the root of a sawspec checkout (src/sawspec and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2
    try:
        summary = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print_summary(args.workload, args.seed, bool(args.trace), summary)
    print(json.dumps(summary["result"]))
    return 0 if summary["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
