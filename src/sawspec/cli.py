"""Command-line front end: one subcommand per analysis surface.

Each subcommand is one ``_cmd_*`` function that owns its command: it checks
the flags argparse cannot check alone, picks its output format from the
formats it offers, computes and writes.  A flag value outside the command's
domain is a usage error, reported before any work is done.

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
from .correlations import MAX_PERIOD, b_exact, b_lattice_estimate, discrete_correlation
from .dedekind import dedekind_sum_pair, spectrum_all
from .distribution import (
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
    rtilde_blocks,
    rtilde_moments_exact,
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
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        # a float vector: one format map over its Python floats
        return list(map(float, map("{:.12g}".format, obj.tolist())))
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
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


def _cell(v) -> str:
    """_fmt(v), quoted as csv.QUOTE_MINIMAL quotes a field with , " or CR/LF."""
    text = _fmt(v)
    if any(c in text for c in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _column(values) -> tuple[str, list]:
    """A CSV column as its %-format code and its cells: a float or integer
    vector is printed by C as %.12g (the digits of _fmt) or %d, any other
    column cell by cell by _cell."""
    if isinstance(values, np.ndarray):
        return ("%.12g" if values.dtype.kind == "f" else "%d"), values.tolist()
    return "%s", [_cell(v) for v in values]


def emit_csv(header, columns, args, meta: dict) -> None:
    """``#`` metadata lines, the header row, then one row per entry of the
    columns (all of one length), formatted column by column: one row
    template fills every row in one %-format."""
    codes, cells = zip(*map(_column, columns))
    rows = len(cells[0])
    flat = [None] * (rows * len(cells))
    for j, column in enumerate(cells):
        flat[j :: len(cells)] = column
    lines = [f"# {k}={_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(header))
    body = (",".join(codes) + "\n") * rows % tuple(flat)
    _write("\n".join(lines) + "\n" + body, args.output)


def _emit_record(payload: dict, args, fmt: str, truncation: dict, header=None) -> None:
    """One record: JSON with ``truncation`` in its meta, or CSV as a header
    row (the payload's keys unless ``header`` is given) over one row of the
    payload's values."""
    if fmt == "csv":
        columns = [(v,) for v in payload.values()]
        emit_csv(header or tuple(payload), columns, args, {"command": args.command})
    else:
        emit_json(payload, args, truncation)


def _emit_histogram(dist, args, meta: dict) -> None:
    counts, edges = histogram(dist)
    emit_csv(("bin_lo", "bin_hi", "count"), (edges[:-1], edges[1:], counts), args, meta)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _prime(text: str) -> int:
    value = int(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"expected a prime, got {text}")
    return value


def _odd_prime(text: str) -> int:
    value = _prime(text)
    if value == 2:
        raise argparse.ArgumentTypeError("expected an odd prime, got 2")
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

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--output", default=None, help="file path (default stdout)")
        p.set_defaults(run=run, usage_error=p.error)  # prints the usage, exits 2
        return p

    p = command("dedekind", _cmd_dedekind, "exact Dedekind sum s_q(a)")
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--a", type=int, required=True)

    p = command("spectrum", _cmd_spectrum, "Fourier transform of the Dedekind sums")
    p.add_argument("--q", type=_odd_prime, required=True)

    p = command("ck", _cmd_ck, "bias constants C(k), k = 1..q-1")
    p.add_argument("--q", type=_odd_prime, required=True)
    p.add_argument("--method", choices=("characters", "truncated"), default="characters")
    p.add_argument("--N", type=_positive_int, default=None, help="series cutoff")

    p = command("c2", _cmd_c2, "second-order pattern constant")
    p.add_argument("--q", type=_odd_prime, required=True)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--pattern", type=_int_list, default=None)

    p = command("bcorr", _cmd_bcorr, "sawtooth correlation integral")
    p.add_argument("--moduli", type=_int_list, required=True)
    p.add_argument("--method", choices=("exact", "lattice", "discrete"), default="exact")
    p.add_argument("--K", type=_positive_int, default=100, help="lattice box size")
    p.add_argument("--q", type=_positive_int, default=None, help="discrete modulus")

    p = command("moments", _cmd_moments, "theoretical moments by tuple sums")
    p.add_argument("--kind", choices=("C", "s", "R"), required=True)
    p.add_argument("--ell", type=_positive_int, required=True)
    p.add_argument("--B", type=_positive_int, required=True)

    p = command("dist", _cmd_dist, "empirical distribution statistics")
    p.add_argument("--source", choices=("ck", "spectrum", "rtilde"), required=True)
    p.add_argument("--q", type=_odd_prime, default=None)
    p.add_argument("--y", type=_positive_int, default=None)
    p.add_argument(
        "--stat",
        choices=("summary", "ecdf", "hist", "tails", "almost-period"),
        default="summary",
    )
    p.add_argument("--m", type=int, default=0, help="shift for almost-period")

    p = command("phi", _cmd_phi, "totient summatory error term")
    p.add_argument("--y", type=_positive_int, required=True)
    p.add_argument("--stat", choices=("moments", "hist", "values"), default="moments")
    p.add_argument("--ell", type=_positive_int, default=2)
    p.add_argument("--x", type=float, default=None)

    p = command("primes", _cmd_primes, "consecutive-prime residue census")
    p.add_argument("--x", type=_positive_int, required=True)
    p.add_argument("--q", type=_prime, required=True)
    p.add_argument("--r", type=_positive_int, default=2)
    p.add_argument(
        "--report-pattern",
        type=_int_list,
        default=None,
        help="emit the conjecture-comparison report for this pattern",
    )

    return parser


# ---------------------------------------------------------------------------
# command bodies: each checks what argparse cannot, picks its format, then
# computes and writes


def _format(args, *offered: str) -> str:
    """``--format`` when this output offers it, else the first offered."""
    if args.format is None:
        return offered[0]
    if args.format not in offered:
        args.usage_error(
            f"--format {args.format} is not available here; this output is {offered[0]}"
        )
    return args.format


def _check_residues(args, residues) -> None:
    for r in residues:
        # r % q catches q = 1, where gcd(r, 1) = 1 for every r
        if r % args.q == 0 or math.gcd(r, args.q) != 1:
            args.usage_error(
                f"need residues coprime to --q {args.q} and nonzero mod it, got {r}"
            )


def _cmd_dedekind(args) -> int:
    _check_residues(args, (args.a,))
    fmt = _format(args, "text", "csv", "json")
    value = dedekind_sum_pair(args.a, args.q)
    if fmt == "text":
        _write(_fmt(value) + "\n", args.output)
    else:
        payload = {"q": args.q, "a": args.a, "method": "reciprocity", "value": value}
        _emit_record(payload, args, fmt, {}, ("q", "a", "method", "s_q_a"))
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    fmt = _format(args, "csv", "json")
    algorithm = "chirp-z"  # the fast route; the naive DFT is the library's oracle
    spec = spectrum_all(args.q, algorithm)
    if fmt == "json":
        emit_json({"q": args.q, "im_s_hat": spec.values}, args, {"algorithm": algorithm})
    else:
        meta = {"q": args.q, "algorithm": algorithm}
        emit_csv(("t", "im_s_hat"), (np.arange(args.q), spec.values), args, meta)
    return EXIT_OK


def _cmd_ck(args) -> int:
    fmt = _format(args, "csv", "json")
    if args.method == "characters":
        vec = ck_all(args.q, "characters", table=build_table(args.q))
    else:
        vec = ck_all(args.q, "truncated", cutoff=args.N)
    # the C(k) print unscaled; a distribution applies its scale at query time
    meta = {"q": args.q, "method": vec.method, "scale": "none", **vec.truncation}
    if fmt == "json":
        emit_json({"q": args.q, "c_k": vec.samples}, args, meta)
    else:
        emit_csv(("k", "c_k"), (np.arange(1, args.q), vec.samples), args, meta)
    return EXIT_OK


def _cmd_c2(args) -> int:
    residues = args.pattern if args.pattern is not None else (args.a, args.b)
    if None in residues:
        args.usage_error("need --pattern or both --a and --b")
    if len(residues) < 2:
        args.usage_error("need a --pattern of length >= 2")
    _check_residues(args, residues)
    fmt = _format(args, "json", "csv")
    table = build_table(args.q)
    if args.pattern is not None:
        pattern = Pattern(args.q, args.pattern)
        payload = {
            "q": args.q,
            "pattern": list(args.pattern),
            "c1": c1_pattern(pattern),
            "c2": c2_pattern(pattern, table),
        }
    else:
        value = c2_pair(args.q, args.a, args.b, table)
        payload = {"q": args.q, "a": args.a, "b": args.b, "c2": value}
    _emit_record(payload, args, fmt, {"a_series_cutoff": table.cutoff})
    return EXIT_OK


def _cmd_bcorr(args) -> int:
    mods = args.moduli
    if min(mods) < 1:
        args.usage_error("need positive --moduli")
    if args.method == "lattice" and len(mods) % 2:
        args.usage_error("the lattice route needs an even number of --moduli")
    if args.method == "discrete":
        if args.q is None:
            args.usage_error("the discrete route needs --q")
        if any(math.gcd(n, args.q) != 1 for n in mods):
            args.usage_error(f"need --moduli coprime to --q {args.q}")
    _format(args, "json")
    payload: dict = {"moduli": list(mods), "method": args.method}
    if args.method == "exact":
        value = b_exact(mods)
        payload["value_num"] = value.numerator
        payload["value_den"] = value.denominator
        payload["error_bound"] = 0.0
    elif args.method == "lattice":
        payload["value"] = b_lattice_estimate(mods, args.K)
        payload["error_bound"] = None
        payload["K"] = args.K
    else:
        value = discrete_correlation(args.q, mods)
        K = math.prod(mods) // min(mods)
        ell = len(mods)
        payload["value"] = value
        payload["q"] = args.q
        payload["error_bound"] = ell * K / args.q * math.log(math.e * args.q / K)
    emit_json(payload, args, {"lcm_cap": MAX_PERIOD})
    return EXIT_OK


def _cmd_moments(args) -> int:
    fmt = _format(args, "json", "csv")
    est = theoretical_moment(args.kind, args.ell, args.B)
    payload = {
        "kind": est.kind,
        "ell": est.ell,
        "B": est.B,
        "value": est.value,
        "tail_note": est.tail_note,
    }
    _emit_record(payload, args, fmt, {"B": args.B})
    return EXIT_OK


def _cmd_dist(args) -> int:
    flag = "y" if args.source == "rtilde" else "q"
    if getattr(args, flag) is None:
        args.usage_error(f"--source {args.source} needs --{flag}")
    if args.source == "rtilde" and args.y < 2:
        args.usage_error("need --y >= 2")
    if args.source == "rtilde" and args.stat == "almost-period":
        args.usage_error("--stat almost-period needs a residue-indexed --source: ck or spectrum")
    _format(args, "json" if args.stat in ("summary", "almost-period") else "csv")
    if args.source == "ck":
        dist = from_ck_vector(ck_all(args.q, "characters", table=build_table(args.q)))
    elif args.source == "spectrum":
        dist = from_spectrum(spectrum_all(args.q))
    else:
        # every statistic regenerates the samples from an int32 phi table
        dist = make_distribution("R", rtilde_blocks(build_phi_accumulator(args.y)))
    meta = {"source": args.source, "scale": dist.scale, flag: getattr(args, flag)}
    if args.stat == "summary":
        emit_json(summary(dist), args, meta)
    elif args.stat == "ecdf":
        xs = np.linspace(-4.0, 4.0, 61)
        emit_csv(("x", "F"), (xs, ecdf_scaled(dist, xs)), args, meta)
    elif args.stat == "hist":
        _emit_histogram(dist, args, meta)
    elif args.stat == "tails":
        xs = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        emit_csv(("x", "upper", "lower"), (xs, *tail_frequency(dist, xs)), args, meta)
    else:
        value = almost_period_stat(dist, args.m)
        emit_json({"m": args.m, "statistic": value}, args, meta)
    return EXIT_OK


def _cmd_phi(args) -> int:
    if args.y < 2:
        args.usage_error("need --y >= 2")
    x = args.x if args.x is not None else float(args.y)
    if args.stat == "values" and not 0 < x <= args.y:
        args.usage_error(f"need --x in (0, {args.y}], got {x}")
    if args.stat == "moments" and args.ell > MAX_MOMENT_ORDER:
        args.usage_error(f"need --ell in [1, {MAX_MOMENT_ORDER}] for --stat moments")
    _format(args, "json" if args.stat == "values" else "csv")
    meta = {"y": args.y}
    # the accumulator holds no table: the values and moments sieve the phi
    # segments they read, the values only up to the one holding floor(x); the
    # histogram sieves phi once into an int32 table and regenerates the samples
    if args.stat == "values":
        R, Rt = r_values(x, build_phi_accumulator(args.y))
        emit_json({"x": x, "R": R, "R_tilde": Rt}, args, meta)
    elif args.stat == "moments":
        moments = rtilde_moments_exact(args.y, args.ell, build_phi_accumulator(args.y))
        emit_csv(("ell", "moment"), (range(1, len(moments) + 1), moments), args, meta)
    else:
        samples = rtilde_blocks(build_phi_accumulator(args.y))
        _emit_histogram(make_distribution("R", samples), args, meta)
    return EXIT_OK


def _cmd_primes(args) -> int:
    if args.x < 2:
        args.usage_error("need --x >= 2")
    residues = args.report_pattern
    if residues is not None:
        _check_residues(args, residues)
        if len(residues) != args.r:
            args.usage_error(f"need --r {len(residues)}, the --report-pattern length")
        if len(residues) >= 2 and args.q == 2:
            args.usage_error("a --report-pattern of length >= 2 needs an odd --q")
    _format(args, "csv" if residues is None else "json")
    census = pattern_census(args.x, args.q, args.r)
    if residues is not None:
        pattern = Pattern(args.q, residues)
        table = build_table(args.q) if pattern.r >= 2 else None
        report = conjecture_report(args.x, args.q, pattern, table, census)
        emit_json(report, args, {"x": args.x})
        return EXIT_OK
    meta = {"x": args.x, "q": args.q, "r": args.r, "windows": census.total_windows}
    keys = sorted(census.counts)
    patterns = [":".join(str(v) for v in key) for key in keys]
    counts = [census.counts[key] for key in keys]
    emit_csv(("pattern", "count"), (patterns, counts), args, meta)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
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
