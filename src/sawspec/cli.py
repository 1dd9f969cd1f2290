"""Command-line front end: one subcommand per analysis surface.

Every command emits CSV (header row, fixed column order, ``#`` metadata
lines) or JSON (stable key order with a meta block); numbers are printed
with 12 significant digits and exact rationals as "num/den".  Outputs are
byte-identical for identical flags: the computations are deterministic by
construction.

Exit codes: 0 success, 1 computation error, 2 usage error, 3 resource or
I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .bias import Pattern, c1_pattern, c2_pair, c2_pattern, ck_all
from .characters import build_table, is_prime
from .correlations import b_exact, b_lattice_estimate, discrete_correlation
from .dedekind import dedekind_sum, spectrum_all
from .distribution import (
    EULER_GAMMA,
    almost_period_stat,
    ecdf_scaled,
    from_ck_vector,
    from_spectrum,
    histogram,
    make_distribution,
    summary,
    tail_frequency,
)
from .errors import ResourceLimitError
from .moments import theoretical_moment
from .phi_error import (
    MAX_MOMENT_ORDER,
    build_phi_accumulator,
    r_values,
    rtilde_moments_exact,
    rtilde_samples,
)
from .primes import conjecture_report, pattern_census

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _write(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def emit_json(payload: dict, args, truncation: dict) -> None:
    record = {
        "meta": {
            "command": args.command,
            "version": __version__,
            "truncation_params": _round12(truncation),
        }
    }
    record.update(_round12(payload))
    _write(json.dumps(record, indent=2) + "\n", args.output)


def emit_csv(columns, rows, args, meta: dict) -> None:
    lines = [f"# {k}={_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write("\n".join(lines) + "\n", args.output)


def _emit_histogram(dist, args, meta: dict) -> None:
    counts, edges = histogram(dist)
    rows = [
        (float(edges[i]), float(edges[i + 1]), int(c)) for i, c in enumerate(counts)
    ]
    emit_csv(("bin_lo", "bin_hi", "count"), rows, args, meta)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        items = tuple(int(v) for v in text.replace(" ", "").split(",") if v)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc
    if not items:
        raise argparse.ArgumentTypeError("empty integer list")
    return items


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sawspec",
        description=(
            "Dedekind-sum spectra, prime-race bias constants, sawtooth "
            "correlation integrals, their moments and distributions, and "
            "the totient summatory error term."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--output", default=None, help="file path (default stdout)")
        p.set_defaults(usage_error=p.error)  # prints the subcommand usage, exits 2

    p = sub.add_parser("dedekind", help="exact Dedekind sum s_q(a)")
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--method", choices=("direct", "reciprocity"), default="reciprocity")
    common(p)

    p = sub.add_parser("spectrum", help="Fourier transform of the Dedekind sums")
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--algorithm", choices=("naive", "chirp-z"), default="chirp-z")
    common(p)

    p = sub.add_parser("ck", help="bias constants C(k), k = 1..q-1")
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--method", choices=("characters", "truncated"), default="characters")
    p.add_argument("--N", type=_positive_int, default=None, help="series cutoff")
    p.add_argument(
        "--scale-egamma",
        action="store_true",
        help="emit 2 e^-gamma C(k) (the distributional normalization)",
    )
    common(p)

    p = sub.add_parser("c2", help="second-order pattern constant")
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--pattern", type=_int_list, default=None)
    common(p)

    p = sub.add_parser("bcorr", help="sawtooth correlation integral")
    p.add_argument("--moduli", type=_int_list, required=True)
    p.add_argument("--method", choices=("exact", "lattice", "discrete"), default="exact")
    p.add_argument("--K", type=_positive_int, default=100, help="lattice box size")
    p.add_argument("--q", type=_positive_int, default=None, help="discrete modulus")
    p.add_argument("--lcm-cap", type=_positive_int, default=1_000_000)
    common(p)

    p = sub.add_parser("moments", help="theoretical moments by tuple sums")
    p.add_argument("--kind", choices=("C", "s", "R"), required=True)
    p.add_argument("--ell", type=_positive_int, required=True)
    p.add_argument("--B", type=_positive_int, required=True)
    common(p)

    p = sub.add_parser("dist", help="empirical distribution statistics")
    p.add_argument("--source", choices=("ck", "spectrum", "rtilde"), required=True)
    p.add_argument("--q", type=_positive_int, default=None)
    p.add_argument("--y", type=_positive_int, default=None)
    p.add_argument(
        "--stat",
        choices=("summary", "ecdf", "hist", "tails", "almost-period"),
        default="summary",
    )
    p.add_argument("--m", type=int, default=0, help="shift for almost-period")
    p.add_argument("--grid", type=_positive_int, default=61, help="ecdf grid points")
    common(p)

    p = sub.add_parser("phi", help="totient summatory error term")
    p.add_argument("--y", type=_positive_int, required=True)
    p.add_argument("--stat", choices=("moments", "hist", "values"), default="moments")
    p.add_argument("--ell", type=_positive_int, default=2)
    p.add_argument("--x", type=float, default=None)
    common(p)

    p = sub.add_parser("primes", help="consecutive-prime residue census")
    p.add_argument("--x", type=_positive_int, required=True)
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--r", type=_positive_int, default=2)
    p.add_argument(
        "--report-pattern",
        type=_int_list,
        default=None,
        help="emit the conjecture-comparison report for this pattern",
    )
    common(p)

    return parser


# ---------------------------------------------------------------------------
# command bodies


def _cmd_dedekind(args) -> int:
    value = dedekind_sum(args.q, args.a, args.method)
    if args.format == "json":
        emit_json(
            {"q": args.q, "a": args.a, "method": args.method, "value": value},
            args,
            {},
        )
    elif args.format == "csv":
        emit_csv(
            ("q", "a", "method", "s_q_a"),
            [(args.q, args.a, args.method, value)],
            args,
            {"command": "dedekind"},
        )
    else:
        _write(_fmt(value) + "\n", args.output)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    spec = spectrum_all(args.q, args.algorithm)
    meta = {"q": args.q, "algorithm": args.algorithm}
    if args.format == "json":
        emit_json(
            {"q": args.q, "im_s_hat": list(spec.values)},
            args,
            {"algorithm": args.algorithm},
        )
    else:
        rows = [(t, float(v)) for t, v in enumerate(spec.values)]
        emit_csv(("t", "im_s_hat"), rows, args, meta)
    return EXIT_OK


def _cmd_ck(args) -> int:
    if args.method == "characters":
        table = build_table(args.q)
        vec = ck_all(args.q, "characters", table=table)
    else:
        vec = ck_all(args.q, "truncated", cutoff=args.N)
    values = vec.samples
    scale_note = "none"
    if args.scale_egamma:
        values = values * (2.0 * math.exp(-EULER_GAMMA))
        scale_note = "2/e^gamma"
    meta = {"q": args.q, "method": vec.method, "scale": scale_note}
    meta.update(vec.truncation)
    if args.format == "json":
        emit_json({"q": args.q, "c_k": list(values)}, args, meta)
    else:
        rows = [(k + 1, float(v)) for k, v in enumerate(values)]
        emit_csv(("k", "c_k"), rows, args, meta)
    return EXIT_OK


def _cmd_c2(args) -> int:
    table = build_table(args.q)
    if args.pattern is not None:
        pattern = Pattern(args.q, args.pattern)
        value = c2_pattern(pattern, table)
        payload = {
            "q": args.q,
            "pattern": list(args.pattern),
            "c1": c1_pattern(pattern),
            "c2": value,
        }
    else:
        value = c2_pair(args.q, args.a, args.b, table)
        payload = {"q": args.q, "a": args.a, "b": args.b, "c2": value}
    if args.format == "csv":
        emit_csv(tuple(payload), [tuple(payload.values())], args, {"command": "c2"})
    else:
        emit_json(payload, args, {"a_series_cutoff": table.cutoff})
    return EXIT_OK


def _cmd_bcorr(args) -> int:
    mods = args.moduli
    payload: dict = {"moduli": list(mods), "method": args.method}
    if args.method == "exact":
        value = b_exact(mods, lcm_cap=args.lcm_cap)
        payload["value_num"] = value.numerator
        payload["value_den"] = value.denominator
        payload["error_bound"] = 0.0
    elif args.method == "lattice":
        payload["value"] = b_lattice_estimate(mods, args.K)
        payload["error_bound"] = None
        payload["K"] = args.K
    else:
        value = discrete_correlation(args.q, mods)
        K = 1
        for n in mods:
            K *= n
        K //= min(mods)
        ell = len(mods)
        payload["value"] = value
        payload["q"] = args.q
        payload["error_bound"] = ell * K / args.q * math.log(math.e * args.q / K)
    emit_json(payload, args, {"lcm_cap": args.lcm_cap})
    return EXIT_OK


def _cmd_moments(args) -> int:
    est = theoretical_moment(args.kind, args.ell, args.B)
    payload = {
        "kind": est.kind,
        "ell": est.ell,
        "B": est.B,
        "value": est.value,
        "tail_note": est.tail_note,
    }
    if args.format == "csv":
        emit_csv(tuple(payload), [tuple(payload.values())], args, {"command": "moments"})
    else:
        emit_json(payload, args, {"B": args.B})
    return EXIT_OK


def _dist_dataset(args):
    if args.source == "ck":
        table = build_table(args.q)
        return from_ck_vector(ck_all(args.q, "characters", table=table))
    if args.source == "spectrum":
        return from_spectrum(spectrum_all(args.q))
    acc = build_phi_accumulator(args.y)
    return make_distribution("R", rtilde_samples(acc))


def _cmd_dist(args) -> int:
    dist = _dist_dataset(args)
    meta = {"source": args.source, "scale": dist.scale}
    if args.q is not None:
        meta["q"] = args.q
    if args.y is not None:
        meta["y"] = args.y
    if args.stat == "summary":
        emit_json(summary(dist), args, meta)
    elif args.stat == "ecdf":
        xs = np.linspace(-4.0, 4.0, args.grid)
        rows = [(float(x), ecdf_scaled(dist, float(x))) for x in xs]
        emit_csv(("x", "F"), rows, args, meta)
    elif args.stat == "hist":
        _emit_histogram(dist, args, meta)
    elif args.stat == "tails":
        xs = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        rows = [
            (x, tail_frequency(dist, x, "upper"), tail_frequency(dist, x, "lower"))
            for x in xs
        ]
        emit_csv(("x", "upper", "lower"), rows, args, meta)
    else:
        value = almost_period_stat(dist, args.m)
        emit_json({"m": args.m, "statistic": value}, args, meta)
    return EXIT_OK


def _cmd_phi(args) -> int:
    acc = build_phi_accumulator(args.y)
    meta = {"y": args.y}
    if args.stat == "values":
        x = args.x if args.x is not None else float(args.y)
        R, Rt = r_values(x, acc)
        emit_json({"x": x, "R": R, "R_tilde": Rt}, args, meta)
    elif args.stat == "moments":
        moments = rtilde_moments_exact(args.y, args.ell, acc)
        rows = list(enumerate(moments, start=1))
        emit_csv(("ell", "moment"), rows, args, meta)
    else:
        _emit_histogram(make_distribution("R", rtilde_samples(acc)), args, meta)
    return EXIT_OK


def _cmd_primes(args) -> int:
    census = pattern_census(args.x, args.q, args.r)
    if args.report_pattern is not None:
        pattern = Pattern(args.q, args.report_pattern)
        table = build_table(args.q) if pattern.r >= 2 else None
        report = conjecture_report(args.x, args.q, pattern, table, census)
        emit_json(report, args, {"x": args.x})
        return EXIT_OK
    meta = {"x": args.x, "q": args.q, "r": args.r, "windows": census.total_windows}
    rows = [
        (":".join(str(v) for v in key), count)
        for key, count in sorted(census.counts.items())
    ]
    emit_csv(("pattern", "count"), rows, args, meta)
    return EXIT_OK


_DISPATCH = {
    "dedekind": _cmd_dedekind,
    "spectrum": _cmd_spectrum,
    "ck": _cmd_ck,
    "c2": _cmd_c2,
    "bcorr": _cmd_bcorr,
    "moments": _cmd_moments,
    "dist": _cmd_dist,
    "phi": _cmd_phi,
    "primes": _cmd_primes,
}


def _flag_combination_error(args) -> str | None:
    """What is wrong with the flags that argparse cannot check alone: a
    missing combination or a value outside the command's domain."""
    if args.command == "c2":
        if args.pattern is None and (args.a is None or args.b is None):
            return "need --pattern or both --a and --b"
        if args.pattern is not None and len(args.pattern) < 2:
            return "need a --pattern of length >= 2"
    if args.command == "bcorr" and args.method == "discrete" and args.q is None:
        return "the discrete route needs --q"
    if args.command == "dist":
        flag = "y" if args.source == "rtilde" else "q"
        if getattr(args, flag) is None:
            return f"--source {args.source} needs --{flag}"
    if args.command in ("spectrum", "ck", "c2") or (
        args.command == "dist" and args.source != "rtilde"
    ):
        if args.q < 3 or not is_prime(args.q):
            return f"need --q an odd prime, got {args.q}"
    if args.command == "primes" and not is_prime(args.q):
        return f"need --q a prime, got {args.q}"
    residues = ()
    if args.command == "dedekind":
        residues = (args.a,)
    elif args.command == "c2":
        residues = args.pattern if args.pattern is not None else (args.a, args.b)
    elif args.command == "primes" and args.report_pattern is not None:
        residues = args.report_pattern
    for r in residues:
        # r % q catches q = 1, where gcd(r, 1) = 1 for every r
        if r % args.q == 0 or math.gcd(r, args.q) != 1:
            return f"need residues coprime to --q {args.q} and nonzero mod it, got {r}"
    if args.command == "phi" or (args.command == "dist" and args.source == "rtilde"):
        if args.y < 2:
            return "need --y >= 2"
    if args.command == "phi" and args.stat == "moments":
        if args.ell > MAX_MOMENT_ORDER:
            return f"need --ell in [1, {MAX_MOMENT_ORDER}] for --stat moments"
    only = _single_format(args)
    if args.format is not None and only not in (None, args.format):
        return f"--format {args.format} is not available here; this output is {only}"
    return None


def _single_format(args) -> str | None:
    """The one format a command (or its --stat) emits, None where --format
    chooses."""
    if args.command == "bcorr":
        return "json"
    if args.command == "dist":
        return "json" if args.stat in ("summary", "almost-period") else "csv"
    if args.command == "phi":
        return "json" if args.stat == "values" else "csv"
    if args.command == "primes":
        return "json" if args.report_pattern is not None else "csv"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problem = _flag_combination_error(args)
    if problem is not None:
        args.usage_error(problem)
    try:
        return _DISPATCH[args.command](args)
    except ResourceLimitError as exc:
        print(f"sawspec: resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"sawspec: i/o error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, ArithmeticError) as exc:
        print(f"sawspec: error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
