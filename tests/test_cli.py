import contextlib
import csv
import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sawspec as sw
from sawspec import __version__
from sawspec.cli import main
from sawspec.distribution import ecdf_scaled, from_ck_vector, from_spectrum, histogram


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_cli_traced(capsys, *argv):
    """``run_cli`` plus the tracemalloc peak of the run, in bytes."""
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, out, err, peak


class TestDedekind:
    def test_prints_rational(self, capsys):
        code, out, _ = run_cli(capsys, "dedekind", "--q", "101", "--a", "7")
        assert code == 0
        assert out.strip() == "104/101"

    def test_json_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "dedekind", "--q", "5", "--a", "1", "--format", "json"
        )
        rec = json.loads(out)
        assert code == 0
        assert rec["value"] == "1/5"
        assert rec["meta"]["command"] == "dedekind"
        assert "version" in rec["meta"] and "truncation_params" in rec["meta"]

    def test_descent_at_a_large_modulus(self, capsys):
        code, out, _ = run_cli(capsys, "dedekind", "--q", "1000000007", "--a", "7")
        assert code == 0
        assert out.strip() == "23809524357142861/2000000014"


def run_quiet(*argv):
    """main's exit code, SystemExit included, and its stdout; stderr is
    discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _is_odd_prime(n):
    return n != 2 and _is_prime(n)


def _coprime(residues, q):
    return all(r % q != 0 and math.gcd(r, q) == 1 for r in residues)


def _at_least_1(value):
    return value is None or value >= 1


def _bounded_moments(flags):
    # ell = 6 and 8 enumerate many multisets: keep their support small
    if flags["ell"] > 4:
        flags["B"] = min(flags["B"], 6)
    return flags


def _maybe(strategy):
    return st.none() | strategy


_Q = st.integers(2, 199).filter(_is_prime) | st.integers(-2, 199)
_RESIDUE = st.integers(-400, 400)
_LIST = st.lists(_RESIDUE, min_size=1, max_size=3).map(tuple)
_FORMAT = {"format": _maybe(st.sampled_from(("csv", "json")))}

# every flag of every command, over small sizes; None leaves a flag out
FLAGS = {
    "dedekind": {"q": _Q, "a": st.integers(-1000, 1000)},
    "spectrum": {"q": _Q},
    "ck": {
        "q": _Q,
        "method": st.sampled_from(("characters", "truncated")),
        "N": _maybe(st.integers(-1, 10_000)),
    },
    "c2": {
        "q": _Q,
        "a": _maybe(_RESIDUE),
        "b": _maybe(_RESIDUE),
        "pattern": _maybe(_LIST),
    },
    "bcorr": {
        "moduli": st.lists(st.integers(-1, 12), min_size=1, max_size=4).map(tuple),
        "method": st.sampled_from(("exact", "lattice", "discrete")),
        "K": st.integers(-1, 30),
        "q": _maybe(_Q),
    },
    "moments": {
        "kind": st.sampled_from(("C", "s", "R")),
        "ell": st.integers(-1, 12),
        "B": st.integers(-1, 30),
    },
    "dist": {
        "source": st.sampled_from(("ck", "spectrum", "rtilde")),
        "q": _maybe(_Q),
        "y": st.integers(-1, 10_000),
        "stat": st.sampled_from(("summary", "ecdf", "hist", "tails", "almost-period")),
        "m": st.integers(-300, 300),
    },
    "phi": {
        "y": st.integers(-1, 10_000),
        "stat": st.sampled_from(("moments", "hist", "values")),
        "ell": _maybe(st.integers(-1, 12)),
        "x": _maybe(st.floats(-10.0, 20_000.0)),
    },
    "primes": {
        "x": st.integers(-1, 10_000),
        "q": _Q,
        "r": _maybe(st.integers(-1, 3)),
        "report-pattern": _maybe(_LIST),
    },
}


def argv_of(command, flags):
    argv = [command]
    for name, value in flags.items():
        if value is True:
            argv.append(f"--{name}")
        elif value is not None and value is not False:
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            argv.append(f"--{name}={value}")
    return argv


def allowed_codes(command, f):
    """The exit codes the flags may give: {2} where a flag lies outside the
    command's domain, else 0 or the documented 1 or 3."""
    offered, codes = ("csv", "json"), {0}
    if command == "dedekind":
        valid = f["q"] >= 1 and _coprime((f["a"],), f["q"])
    elif command == "spectrum":
        valid = _is_odd_prime(f["q"])
    elif command == "ck":
        valid = _is_odd_prime(f["q"]) and _at_least_1(f["N"])
    elif command == "c2":
        residues = f["pattern"] if f["pattern"] is not None else (f["a"], f["b"])
        valid = (
            _is_odd_prime(f["q"])
            and None not in residues
            and len(residues) >= 2
            and _coprime(residues, f["q"])
        )
    elif command == "bcorr":
        mods, q = f["moduli"], f["q"]
        offered = ("json",)
        valid = min(mods) >= 1 and f["K"] >= 1 and _at_least_1(q)
        if f["method"] == "lattice":
            valid = valid and len(mods) % 2 == 0
        elif f["method"] == "discrete":
            valid = valid and q is not None and math.gcd(math.prod(mods), q) == 1
            # the discrete route's precondition prod/min < q/ell
            if valid and math.prod(mods) // min(mods) * len(mods) >= q:
                codes = {1}
    elif command == "moments":
        valid = f["ell"] >= 1 and f["B"] >= 1
        offered = ("json", "csv")
        if f["ell"] % 2 == 0 and f["ell"] > 8:
            codes = {3}  # the multiset budget or the degree cap
    elif command == "dist":
        q, y = f["q"], f["y"]
        valid = (q is None or _is_odd_prime(q)) and y >= 1
        if f["source"] == "rtilde":
            valid = valid and y >= 2 and f["stat"] != "almost-period"
        else:
            valid = valid and q is not None
        offered = ("json",) if f["stat"] in ("summary", "almost-period") else ("csv",)
    elif command == "phi":
        y, ell = f["y"], f["ell"]
        x = f["x"] if f["x"] is not None else y
        valid = y >= 2 and _at_least_1(ell)
        if f["stat"] == "values":
            valid = valid and 0 < x <= y
        elif f["stat"] == "moments":
            valid = valid and (ell or 2) <= 8
        offered = ("json",) if f["stat"] == "values" else ("csv",)
    else:
        q, pattern = f["q"], f["report-pattern"]
        r = f["r"] if f["r"] is not None else 2
        valid = f["x"] >= 2 and _is_prime(q) and r >= 1
        if pattern is not None:
            valid = valid and _coprime(pattern, q) and len(pattern) == r
            valid = valid and (len(pattern) == 1 or q != 2)
        offered = ("csv",) if pattern is None else ("json",)
    if valid and f["format"] in (None, *offered):
        return codes
    return {2}


class TestExitCodes:
    @given(st.integers(1, 500), st.integers(-1000, 1000))
    def test_dedekind_residue_is_0_or_2(self, q, a):
        ok = a % q != 0 and math.gcd(a, q) == 1
        assert run_quiet("dedekind", "--q", str(q), "--a", str(a))[0] == (0 if ok else 2)

    @pytest.mark.parametrize("command", sorted(FLAGS))
    @given(data=st.data())
    @settings(deadline=None)
    def test_exit_code_follows_the_flags(self, command, data):
        strategy = st.fixed_dictionaries({**FLAGS[command], **_FORMAT})
        if command == "moments":
            strategy = strategy.map(_bounded_moments)
        flags = data.draw(strategy)
        code, out = run_quiet(*argv_of(command, flags))
        assert code in allowed_codes(command, flags)
        if code == 2:
            assert out == ""

    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ck", "--q", "0"])
        assert exc.value.code == 2

    def test_unknown_flag_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dedekind", "--q", "7", "--a", "1", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("c2", "--q", "101"),
            ("c2", "--q", "101", "--a", "1"),
            ("bcorr", "--moduli", "2,3", "--method", "discrete"),
            ("dist", "--source", "ck"),
            ("dist", "--source", "spectrum", "--y", "100"),
            ("dist", "--source", "rtilde", "--q", "101"),
        ],
    )
    def test_missing_flag_combination_is_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"usage: sawspec {argv[0]}" in out.err
        assert "need" in out.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("phi", "--y", "1"),
            ("dist", "--source", "rtilde", "--y", "1"),
            ("phi", "--y", "1000", "--stat", "moments", "--ell", "9"),
            ("c2", "--q", "101", "--pattern", "1"),
            ("phi", "--y", "100", "--stat", "values", "--x", "500"),
            ("phi", "--y", "100", "--stat", "values", "--x", "-1"),
            ("bcorr", "--moduli", "0,3"),
            ("bcorr", "--moduli", "2,3", "--method", "discrete", "--q", "4"),
            ("bcorr", "--moduli", "3", "--method", "lattice"),
            ("dist", "--source", "rtilde", "--y", "100", "--stat", "almost-period"),
            ("primes", "--x", "1", "--q", "3"),
            ("primes", "--x", "100", "--q", "3", "--report-pattern", "1"),
            ("primes", "--x", "100", "--q", "2", "--report-pattern", "1,1"),
        ],
    )
    def test_flag_outside_domain_is_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"usage: sawspec {argv[0]}" in out.err

    def test_unused_ell_is_not_checked(self, capsys):
        code, out, _ = run_cli(
            capsys, "phi", "--y", "1000", "--stat", "hist", "--ell", "9"
        )
        assert code == 0
        assert "bin_lo,bin_hi,count" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("c2", "--q", "101", "--a", "0", "--b", "1"),
            ("c2", "--q", "101", "--pattern", "1,101,2"),
            ("primes", "--x", "100", "--q", "3", "--report-pattern", "3,1"),
            ("dedekind", "--q", "101", "--a", "0"),
        ],
    )
    def test_residue_zero_mod_q_is_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"usage: sawspec {argv[0]}" in out.err
        assert "coprime to --q" in out.err

    @pytest.mark.parametrize("q, a", [("10", "4"), ("1", "5")])
    def test_residue_sharing_a_factor_with_q_is_2(self, capsys, q, a):
        # dedekind takes any modulus, so a nonzero residue can still share
        # a factor with it, and every residue is 0 mod 1
        with pytest.raises(SystemExit) as exc:
            main(["dedekind", "--q", q, "--a", a])
        assert exc.value.code == 2
        assert f"coprime to --q {q}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "moduli, bound",
        [
            ("1,3689348814741910324", "18446744073709551620"),
            (
                "100000000000000,100000000000001,100000000000003,100000000000007",
                "15000000000001450000000000029500000000000105",
            ),
        ],
        ids=["pair", "quadruple"],
    )
    def test_lattice_int64_bound_is_1(self, capsys, moduli, bound):
        code, out, err = run_cli(
            capsys, "bcorr", "--moduli", moduli, "--method", "lattice", "--K", "5"
        )
        assert code == 1
        assert out == ""
        assert f"n_last K sum_j D/n_j = {bound} below 2^63" in err

    def test_computation_error_is_1(self, capsys):
        # prod/min = 3 >= q/ell = 2.5: the discrete route's precondition,
        # checked by the library, which raises ValueError
        code, _, err = run_cli(
            capsys, "bcorr", "--moduli", "2,3", "--method", "discrete", "--q", "5"
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("bcorr", "--moduli", "2,3", "--format", "csv"),
            ("dist", "--source", "spectrum", "--q", "101", "--format", "csv"),
            ("dist", "--source", "spectrum", "--q", "101", "--stat", "almost-period",
             "--format", "csv"),
            ("dist", "--source", "spectrum", "--q", "101", "--stat", "ecdf",
             "--format", "json"),
            ("dist", "--source", "spectrum", "--q", "101", "--stat", "hist",
             "--format", "json"),
            ("dist", "--source", "spectrum", "--q", "101", "--stat", "tails",
             "--format", "json"),
            ("phi", "--y", "100", "--stat", "values", "--format", "csv"),
            ("phi", "--y", "100", "--stat", "moments", "--format", "json"),
            ("phi", "--y", "100", "--stat", "hist", "--format", "json"),
            ("primes", "--x", "100", "--q", "3", "--format", "json"),
            ("primes", "--x", "100", "--q", "3", "--report-pattern", "1,2",
             "--format", "csv"),
        ],
    )
    def test_format_the_output_cannot_take_is_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"usage: sawspec {argv[0]}" in out.err
        assert "--format" in out.err

    @pytest.mark.parametrize(
        "argv, start",
        [
            (("bcorr", "--moduli", "2,3", "--format", "json"), "{"),
            (("dist", "--source", "spectrum", "--q", "101", "--format", "json"), "{"),
            (("phi", "--y", "100", "--stat", "moments", "--format", "csv"), "#"),
            (("primes", "--x", "100", "--q", "3", "--format", "csv"), "#"),
            (("dist", "--source", "spectrum", "--q", "101", "--stat", "summary",
              "--format", "json"), "{"),
            (("dist", "--source", "spectrum", "--q", "101", "--stat", "ecdf",
              "--format", "csv"), "#"),
            (("dist", "--source", "spectrum", "--q", "101", "--stat", "hist",
              "--format", "csv"), "#"),
            (("dist", "--source", "spectrum", "--q", "101", "--stat", "tails",
              "--format", "csv"), "#"),
            (("dist", "--source", "spectrum", "--q", "101", "--stat", "almost-period",
              "--format", "json"), "{"),
            (("phi", "--y", "100", "--stat", "values", "--format", "json"), "{"),
            (("phi", "--y", "100", "--stat", "hist", "--format", "csv"), "#"),
            (("primes", "--x", "100", "--q", "3", "--report-pattern", "1,2",
              "--format", "json"), "{"),
        ],
    )
    def test_format_the_output_takes_is_accepted(self, capsys, argv, start):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith(start)

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--q", "100"),
            ("ck", "--q", "25", "--method", "truncated", "--N", "3"),
            ("ck", "--q", "100"),
            ("c2", "--q", "100", "--a", "1", "--b", "2"),
            ("dist", "--source", "ck", "--q", "2"),
            ("primes", "--x", "100", "--q", "4"),
            ("dist", "--source", "rtilde", "--y", "100", "--q", "4"),
        ],
    )
    def test_composite_modulus_is_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"usage: sawspec {argv[0]}" in out.err
        assert "prime" in out.err

    def test_discrete_moduli_not_coprime_to_q_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bcorr", "--moduli", "2,3", "--method", "discrete", "--q", "100"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "coprime" in out.err

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "2", "dedekind", "--q", "7", "--a", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("bcorr", "--moduli", "2,3", "--lcm-cap", "5"),
            ("dist", "--source", "ck", "--q", "11", "--stat", "ecdf", "--grid", "5"),
        ],
    )
    def test_cap_and_grid_flags_are_gone(self, capsys, argv):
        # bcorr's period cap and the ECDF's 61-point grid are fixed
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in out.err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("dedekind", "--q", "7", "--a", "6"), ("--method", "direct")),
            (("ck", "--q", "11"), ("--scale-egamma",)),
            (("spectrum", "--q", "11"), ("--algorithm", "naive")),
        ],
        ids=["dedekind", "ck", "spectrum"],
    )
    def test_method_and_scale_flags_are_gone(self, capsys, argv, flag):
        # the CLI's Dedekind sum is the descent and its spectrum the fast
        # route (the definitional sum and the naive DFT are the library's
        # oracles), and C(k) print unscaled
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flag])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in out.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("phi", "--y", "100000001"),
            ("dist", "--source", "rtilde", "--y", "100000001"),
        ],
    )
    def test_accumulator_cap_is_3(self, capsys, argv):
        # rejected before any sieve work, for the float64 exactness of the
        # prefix sums, with the bytes the samples alone would need, 8 per
        # entry, and those of the phi table the statistics read, 4
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "800000008 bytes" in err and "read 400000004 bytes" in err

    def test_truncated_ck_sieve_cap_is_3(self, capsys):
        # refused before the b(n) table, at 15 bytes per entry of [0, N]
        code, out, err, peak = run_cli_traced(
            capsys, "ck", "--q", "11", "--method", "truncated", "--N", "200000001"
        )
        assert code == 3
        assert out == ""
        assert "3000000030 bytes" in err
        assert peak < 1 << 20

    def test_spectrum_cap_is_3(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--q", "2000003")
        assert code == 3
        assert out == ""
        assert "58000087 bytes" in err

    @pytest.mark.parametrize("ell", ["2", "4"])
    @pytest.mark.parametrize("kind", ["C", "s", "R"])
    def test_moment_sieve_cap_is_3(self, capsys, kind, ell):
        # refused before any array of length B + 1, with the bytes of the
        # float64 weights on [0, B] beside a sieve (10 per entry), or for
        # ell = 2 of the second moment's peak (25 per entry)
        code, out, err, peak = run_cli_traced(
            capsys, "moments", "--kind", kind, "--ell", ell, "--B", "10000000000"
        )
        assert code == 3
        assert out == ""
        want = "250000000025 bytes" if ell == "2" else "100000000010 bytes"
        assert want in err
        assert peak < 1 << 20

    def test_discrete_correlation_cap_is_3(self, capsys):
        # refused before its O(q) arrays, with the bytes they would need
        code, out, err, peak = run_cli_traced(
            capsys, "bcorr", "--moduli", "2,3", "--method", "discrete",
            "--q", "1000000007",
        )
        assert code == 3
        assert out == ""
        assert "33000000231 bytes" in err
        assert peak < 1 << 20

    def test_resource_error_is_3(self, capsys):
        # the reduced period 9 699 690 is above the fixed cap of 10^6: refused
        # before any array, naming both
        code, out, err, peak = run_cli_traced(
            capsys, "bcorr", "--moduli", "2310,2730,2431,646,57,15"
        )
        assert code == 3
        assert out == ""
        assert "resource error: reduced period 9699690 exceeds cap 1000000" in err
        assert peak < 1 << 20

    def test_exact_meta_prints_the_period_cap(self, capsys):
        code, out, _ = run_cli(capsys, "bcorr", "--moduli", "6,10,15,30")
        assert code == 0
        assert json.loads(out)["meta"]["truncation_params"] == {"lcm_cap": 1000000}


class TestSpectrumCsv:
    def test_schema(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--q", "11")
        assert code == 0
        lines = out.strip().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "t,im_s_hat"
        assert len(body) == 1 + 11
        assert any("q=11" in l for l in meta)
        assert body[1].startswith("0,0")

    def test_roundtrip_at_printed_precision(self, capsys):
        _, out, _ = run_cli(capsys, "spectrum", "--q", "11")
        rows = [
            l.split(",") for l in out.strip().splitlines() if not l.startswith("#")
        ][1:]
        for t, val in rows:
            parsed = float(val)
            assert f"{parsed:.12g}" == val


class TestDeterminism:
    def test_truncated_ck_repeat_run_identical(self, capsys):
        argv = ("ck", "--q", "101", "--method", "truncated")
        _, a, _ = run_cli(capsys, *argv)
        _, b, _ = run_cli(capsys, *argv)
        assert a == b

    def test_repeat_run_identical(self, capsys):
        _, a, _ = run_cli(capsys, "moments", "--kind", "s", "--ell", "2", "--B", "500")
        _, b, _ = run_cli(capsys, "moments", "--kind", "s", "--ell", "2", "--B", "500")
        assert a == b


class TestMoments:
    def test_totient_benchmark_within_1pct(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "moments", "--kind", "R", "--ell", "2", "--B", "10000",
            "--format", "json",
        )
        rec = json.loads(out)
        assert code == 0
        assert rec["kind"] == "R" and rec["ell"] == 2 and rec["B"] == 10000
        assert abs(rec["value"] - 0.0506606) <= 0.01 * 0.0506606
        assert rec["meta"]["truncation_params"]["B"] == 10000


class TestBcorr:
    def test_exact_rational_payload(self, capsys):
        code, out, _ = run_cli(capsys, "bcorr", "--moduli", "1,2")
        rec = json.loads(out)
        assert (rec["value_num"], rec["value_den"]) == (1, 24)
        assert rec["error_bound"] == 0.0

    def test_discrete_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "bcorr", "--moduli", "2,3", "--method", "discrete", "--q", "101"
        )
        rec = json.loads(out)
        assert rec["method"] == "discrete"
        K, ell, q = 3, 2, 101
        assert rec["error_bound"] == pytest.approx(
            ell * K / q * math.log(math.e * q / K), rel=1e-9
        )


class TestOther:
    def test_ck_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, "ck", "--q", "101", "--method", "truncated")
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "k,c_k"
        assert len(body) == 1 + 100

    def test_c2_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "c2", "--q", "101", "--a", "1", "--b", "2"
        )
        rec = json.loads(out)
        assert rec["c2"] == pytest.approx(18.411653044372997, rel=1e-9)

    def test_dist_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--source", "spectrum", "--q", "1009"
        )
        rec = json.loads(out)
        assert code == 0
        assert rec["count"] == 1008
        assert abs(rec["symmetry_stat"]) <= 3 / math.sqrt(1009)

    def test_dist_almost_period(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dist", "--source", "spectrum", "--q", "1009",
            "--stat", "almost-period", "--m", "0",
        )
        rec = json.loads(out)
        assert rec["statistic"] == 0.0

    @pytest.mark.parametrize(
        "argv, other, meta",
        [
            (
                ("dist", "--source", "rtilde", "--y", "1000", "--stat", "tails"),
                ("--q", "7"),
                ["source", "scale", "y"],
            ),
            (
                ("dist", "--source", "spectrum", "--q", "11", "--stat", "ecdf"),
                ("--y", "5"),
                ["source", "scale", "q"],
            ),
        ],
        ids=["rtilde", "spectrum"],
    )
    def test_dist_meta_names_only_its_source_flag(self, capsys, argv, other, meta):
        # rtilde reads --y alone, ck and spectrum read --q alone
        code, out, _ = run_cli(capsys, *argv, *other)
        assert code == 0
        assert [l[2:].split("=")[0] for l in out.splitlines() if l.startswith("#")] == meta
        assert out == run_cli(capsys, *argv)[1]

    def test_phi_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "phi", "--y", "100", "--stat", "values", "--x", "10"
        )
        rec = json.loads(out)
        assert rec["R"] == pytest.approx(32 - 300 / math.pi**2, abs=1e-9)

    def test_primes_census_csv(self, capsys):
        code, out, _ = run_cli(capsys, "primes", "--x", "30", "--q", "3", "--r", "2")
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "pattern,count"
        rows = dict(l.split(",") for l in body[1:])
        assert rows["2:1"] == "4"
        assert rows["1:2"] == "3"

    def test_primes_report_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "primes", "--x", "10000", "--q", "3",
            "--report-pattern", "1,1",
        )
        rec = json.loads(out)
        assert rec["observed"] < rec["main_term"]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "spec.csv"
        code, out, _ = run_cli(
            capsys, "spectrum", "--q", "11", "--output", str(path)
        )
        assert code == 0 and out == ""
        assert path.read_text().splitlines()[2] == "t,im_s_hat"


class TestCsvRecords:
    @pytest.mark.parametrize(
        "argv",
        [
            ("c2", "--q", "5", "--pattern", "1,2,1"),
            ("c2", "--q", "101", "--pattern", "3,7,3,1"),
            ("c2", "--q", "101", "--a", "1", "--b", "2"),
            ("moments", "--kind", "C", "--ell", "1", "--B", "5"),
            ("moments", "--kind", "C", "--ell", "2", "--B", "5"),
            ("moments", "--kind", "C", "--ell", "4", "--B", "5"),
            ("moments", "--kind", "s", "--ell", "4", "--B", "12"),
            ("dedekind", "--q", "101", "--a", "7"),
            ("dedekind", "--q", "7", "--a", "6"),
        ],
    )
    def test_single_row_records_parse_to_the_header_width(self, capsys, argv):
        # a cell holding a comma (a pattern list, a tail note) is quoted
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        rows = list(csv.reader(l for l in out.splitlines() if not l.startswith("#")))
        assert code == 0 and len(rows) == 2
        assert len(rows[1]) == len(rows[0]), rows

    def test_quoted_cells(self, capsys):
        _, out, _ = run_cli(capsys, "c2", "--q", "5", "--pattern", "1,2,1", "--format", "csv")
        assert out.splitlines()[2] == '5,"[1, 2, 1]",1,-1.27156084602'
        _, out, _ = run_cli(
            capsys, "moments", "--kind", "C", "--ell", "4", "--B", "5", "--format", "csv"
        )
        rows = list(csv.reader(out.splitlines()[1:]))
        assert rows[1][4] == "multiset sum, support 3 values <= 5; pruned mass bound 0"


# ---------------------------------------------------------------------------
# the row-by-row formatter: the reference for the column-by-column CSV and
# the vector fast path of the JSON rounding


def _cell(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _csv_by_rows(header, rows, meta: dict) -> str:
    lines = [f"# {k}={_cell(v)}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _round12_by_cells(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12_by_cells(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12_by_cells(v) for v in obj]
    return obj


def _json_by_cells(command: str, payload: dict, truncation: dict) -> str:
    record = {
        "meta": {
            "command": command,
            "version": __version__,
            "truncation_params": _round12_by_cells(truncation),
        }
    }
    record.update(_round12_by_cells(payload))
    return json.dumps(record, indent=2) + "\n"


OUTPUT_QS = [101, 1009, 10007, 1_000_003]


class TestOutputMatchesRowFormatter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("q", OUTPUT_QS)
    def test_spectrum(self, capsys, q, fmt):
        code, out, _ = run_cli(capsys, "spectrum", "--q", str(q), "--format", fmt)
        values = sw.spectrum_all(q).values
        if fmt == "csv":
            rows = [(t, float(v)) for t, v in enumerate(values)]
            meta = {"q": q, "algorithm": "chirp-z"}
            expected = _csv_by_rows(("t", "im_s_hat"), rows, meta)
        else:
            payload = {"q": q, "im_s_hat": list(values)}
            expected = _json_by_cells("spectrum", payload, {"algorithm": "chirp-z"})
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("method", ["characters", "truncated"])
    @pytest.mark.parametrize("q", OUTPUT_QS)
    def test_ck(self, capsys, q, method, fmt):
        code, out, _ = run_cli(
            capsys, "ck", "--q", str(q), "--method", method, "--format", fmt
        )
        if method == "characters":
            vec = sw.ck_all(q, method, table=sw.build_table(q))
        else:
            vec = sw.ck_all(q, method)
        meta = {"q": q, "method": method, "scale": "none", **vec.truncation}
        if fmt == "csv":
            rows = [(k + 1, float(v)) for k, v in enumerate(vec.samples)]
            expected = _csv_by_rows(("k", "c_k"), rows, meta)
        else:
            payload = {"q": q, "c_k": list(vec.samples)}
            expected = _json_by_cells("ck", payload, meta)
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize("source", ["spectrum", "ck"])
    @pytest.mark.parametrize("q", OUTPUT_QS)
    def test_dist_ecdf(self, capsys, q, source):
        code, out, _ = run_cli(
            capsys, "dist", "--source", source, "--q", str(q), "--stat", "ecdf"
        )
        if source == "ck":
            d = from_ck_vector(sw.ck_all(q, "characters", table=sw.build_table(q)))
        else:
            d = from_spectrum(sw.spectrum_all(q))
        rows = [(float(x), ecdf_scaled(d, float(x))) for x in np.linspace(-4, 4, 61)]
        meta = {"source": source, "scale": d.scale, "q": q}
        assert code == 0
        assert out == _csv_by_rows(("x", "F"), rows, meta)

    def test_phi_hist_leaves_numpy_ma_unimported(self):
        # np.percentile, behind numpy's FD rule, imports numpy.ma
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import contextlib, io, sys\n"
            "from sawspec.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['phi', '--y', '100000', '--stat', 'hist'])\n"
            "sys.exit('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        run = subprocess.run([sys.executable, "-c", script], env={"PYTHONPATH": src})
        assert run.returncode == 0

    @pytest.mark.parametrize("y", [1000, 100_000, 1_000_000])
    def test_phi_hist(self, capsys, y):
        code, out, _ = run_cli(capsys, "phi", "--y", str(y), "--stat", "hist")
        acc = sw.build_phi_accumulator(y)
        counts, edges = histogram(sw.make_distribution("R", sw.rtilde_samples(acc)))
        rows = [
            (float(edges[i]), float(edges[i + 1]), int(c)) for i, c in enumerate(counts)
        ]
        assert code == 0
        assert out == _csv_by_rows(("bin_lo", "bin_hi", "count"), rows, {"y": y})
