"""Child process of the benchmark; prints one JSON object on stdout.

    worker.py setup --spawned T
        interpreter start, ``import sawspec`` and the warm-up, then exit.
    worker.py pass --workload W --seed S --rep R --sizes full|toy --trace 0|1 --spawned T
        set-up as above, then one pass through the workload's measured
        operations, each followed by its checks outside the timed region.
        The pass runs in a child forked after set-up, and each check in a
        child forked from the pass, so the pass's peak RSS is that of the
        operations, not that of the warm-up or of the checks.
    worker.py cli --trace 0|1 --spawned T -- ARGV...
        ``sawspec.cli.main(ARGV)`` with its standard output captured.  Only
        the harness modules ``sawspec.cli`` imports anyway are loaded, and
        the span tracer only when tracing.

``T`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` and ``process_start_s`` count interpreter start-up.
"""

import time

T_FIRST = time.monotonic()

import argparse
import contextlib
import io
import json
import os
import sys


def peak_rss_mb() -> float:
    """This process's peak RSS (VmHWM).  Unlike ``ru_maxrss``, it does not
    inherit the parent's peak across fork and exec: a forked child's peak
    starts at its RSS at the fork."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def _setup(spawned: float) -> dict:
    import workloads

    workloads.warm_up()
    return {"process_start_s": T_FIRST - spawned, "setup_s": time.monotonic() - spawned}


def _tracer(trace: bool):
    """A tracer with its spans installed, or None when not tracing."""
    if not trace:
        return None
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    return tracer


def _print_exc() -> None:
    import traceback

    traceback.print_exc()


def forked_check(check, output) -> tuple[list, str | None]:
    """``check(output)`` run in a forked child, so that the memory the check
    takes stays out of this process's peak RSS.  Returns its (name, ok,
    detail) triples and the error that stopped it, if any."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            reply = {"checks": [(name, bool(ok), str(d)) for name, ok, d in check(output)]}
        except BaseException as exc:  # an operation whose check cannot run fails
            reply = {"error": f"check raised {type(exc).__name__}: {exc}"}
            _print_exc()
        with os.fdopen(write, "w") as pipe:
            pipe.write(json.dumps(reply))
        sys.stderr.flush()
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        text = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not text:
        return [], f"check process exited {code}"
    reply = json.loads(text)
    return [tuple(c) for c in reply.get("checks", [])], reply.get("error")


def run_pass(args) -> dict:
    import workloads

    tracer = _tracer(args.trace)
    inputs = workloads.inputs_for(args.workload, args.seed, args.rep, args.sizes)
    ops = []
    for name, run, check in workloads.operations(args.workload, inputs):
        output, error = None, None
        op = run
        if tracer:
            op = tracer.wrap("perfbench.op", run)
            tracer.active = True
        start = time.perf_counter()
        try:
            output = op()
        except Exception as exc:  # an operation that raises is a failed operation
            error = f"{type(exc).__name__}: {exc}"
            _print_exc()
        seconds = time.perf_counter() - start
        if tracer:
            tracer.active = False
        checks = []
        if error is None:
            checks, error = forked_check(check, output)
        del output
        ops.append(workloads.op_record(name, seconds, checks, error))
    return {
        "ops": ops,
        "wall_s": sum(op["seconds"] for op in ops),
        "inputs": workloads.describe_inputs(args.workload, inputs),
        "trace": tracer.report() if tracer else None,
    }


def run_cli(args) -> dict:
    import sawspec.cli

    tracer = _tracer(args.trace)
    main = sawspec.cli.main
    if tracer:
        main = tracer.wrap("perfbench.op", main)
        tracer.active = True
    captured, errors = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(errors):
        try:
            returncode = main(args.argv)
        except SystemExit as exc:  # argparse usage errors
            returncode = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # anything cli.main lets through fails the command
            _print_exc()
            returncode = 1
    if tracer:
        tracer.active = False
    return {
        "process_start_s": T_FIRST - args.spawned,
        "returncode": returncode,
        "stdout": captured.getvalue(),
        "stderr": errors.getvalue(),
        "trace": tracer.report() if tracer else None,
    }


def emit(result: dict) -> None:
    result["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


def forked_pass(args) -> int:
    """Set-up here, the measured pass in a forked child; returns the child's
    exit code once it has ended."""
    setup = _setup(args.spawned)
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    code = 0
    try:
        emit(dict(setup, **run_pass(args)))
    except BaseException:
        _print_exc()
        code = 1
    sys.stderr.flush()
    os._exit(code)


def main() -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--spawned", type=float, required=True)
    p = sub.add_parser("pass")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", type=int, required=True)
    p.add_argument("--sizes", default="full")
    p.add_argument("--trace", type=lambda v: bool(int(v)), default=False)
    p.add_argument("--spawned", type=float, required=True)
    p = sub.add_parser("cli")
    p.add_argument("--trace", type=lambda v: bool(int(v)), default=False)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "setup":
        emit(_setup(args.spawned))
    elif args.mode == "pass":
        return forked_pass(args)
    else:
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        emit(run_cli(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
