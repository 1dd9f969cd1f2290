import contextlib
import io
import json
import math

import pytest
from hypothesis import given, strategies as st

from sawspec.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_direct_method_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "dedekind", "--q", "7", "--a", "6", "--method", "direct"
        )
        assert code == 0 and out.strip() == "-5/14"


def exit_code(*argv):
    """main's exit code, SystemExit included, with its output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(list(argv))
        except SystemExit as exc:
            return exc.code


class TestExitCodes:
    @given(st.integers(1, 500), st.integers(-1000, 1000))
    def test_dedekind_residue_is_0_or_2(self, q, a):
        ok = a % q != 0 and math.gcd(a, q) == 1
        assert exit_code("dedekind", "--q", str(q), "--a", str(a)) == (0 if ok else 2)

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

    def test_discrete_moduli_not_coprime_to_q_is_1(self, capsys):
        code, out, err = run_cli(
            capsys, "bcorr", "--moduli", "2,3", "--method", "discrete", "--q", "100"
        )
        assert code == 1
        assert out == ""
        assert "coprime" in err

    def test_threads_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "2", "dedekind", "--q", "7", "--a", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("phi", "--y", "100000001"),
            ("dist", "--source", "rtilde", "--y", "100000001"),
        ],
    )
    def test_accumulator_cap_is_3(self, capsys, argv):
        # rejected before the sieve is built, with the bytes its peak would
        # need: phi and the prefix, int64 each
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "1600000032 bytes" in err

    def test_spectrum_cap_is_3(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--q", "2000003")
        assert code == 3
        assert out == ""
        assert "122000183 bytes" in err

    def test_resource_error_is_3(self, capsys):
        code, _, err = run_cli(
            capsys, "bcorr", "--moduli", "5,5,7,7", "--lcm-cap", "10"
        )
        assert code == 3
        assert "resource" in err


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
