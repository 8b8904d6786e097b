import json
from fractions import Fraction

import mpmath
import pytest

import psiq.cli
from psiq.cli import run
from psiq.expressions import eval_const_expr, parse_const_expr
from psiq.numerics import EvalContext
from psiq.verification import CaseResult, ComparisonReport

from conftest import reference_digamma


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExact:
    def test_psi_half(self, capsys):
        code, out, _ = invoke(capsys, "exact", "1/2")
        assert code == 0
        assert out.strip() == "-gamma - 2*ln(2)"

    def test_pole_exit_three(self, capsys):
        code, out, err = invoke(capsys, "exact", "-1")
        assert code == 3
        assert "digamma pole at non-positive integer" in err
        assert out == ""

    def test_negative_rational_accepted(self, capsys):
        code, out, _ = invoke(capsys, "exact", "-7/3")
        assert code == 0
        assert out.startswith("117/28 - gamma")

    def test_malformed_rational(self, capsys):
        code, _, err = invoke(capsys, "exact", "seven")
        assert code == 2
        assert "malformed rational" in err

    def test_zero_denominator(self, capsys):
        code, _, err = invoke(capsys, "exact", "7/0")
        assert code == 2
        assert "undefined rational" in err

    def test_missing_argument(self, capsys):
        code, _, err = invoke(capsys, "exact")
        assert code == 2

    def test_large_shift_renders(self, capsys):
        # the exact correction for 10001/3 has a numerator of ~10^4 digits
        code, out, _ = invoke(capsys, "exact", "10001/3")
        assert code == 0
        assert "- gamma" in out

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "exact", "1/2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {
            "argument": "1/2",
            "closedForm": "-gamma - 2*ln(2)",
            "latex": r"-\gamma - 2\ln(2)",
        }

    def test_latex_format(self, capsys):
        code, out, _ = invoke(capsys, "exact", "1/4", "--format", "latex")
        assert code == 0
        assert r"\cot" in out


class TestEval:
    def test_psi_half_thirty_digits(self, capsys):
        code, out, _ = invoke(capsys, "eval", "1/2", "--digits", "30")
        assert code == 0
        assert out.strip() == "-1.96351002602142347944097633300"

    def test_negative_argument(self, capsys):
        code, out, _ = invoke(capsys, "eval", "-7/3", "--digits", "30")
        assert code == 0
        value = float(out.strip())
        assert abs(value - float(reference_digamma(Fraction(-7, 3), 30))) < 1e-12

    def test_pole(self, capsys):
        code, _, err = invoke(capsys, "eval", "0")
        assert code == 3
        assert "digamma pole" in err

    def test_too_few_digits_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "eval", "1/2", "--digits", "10")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "eval", "1/2", "--digits", "20", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["argument"] == "1/2"
        assert data["digits"] == 20
        assert data["value"].startswith("-1.9635100260")

    def test_exact_and_eval_agree(self, capsys):
        # the rendered closed form, re-parsed and evaluated, matches eval output
        ctx = EvalContext(30)
        for arg in ("7/3", "-7/3", "1/5", "5/12", "11/12"):
            code, exact_out, _ = invoke(capsys, "exact", arg)
            assert code == 0
            code, eval_out, _ = invoke(capsys, "eval", arg, "--digits", "30")
            assert code == 0
            reparsed = eval_const_expr(parse_const_expr(exact_out.strip()), ctx)
            direct = ctx.mp.mpf(eval_out.strip())
            assert abs(reparsed - direct) < ctx.mp.mpf(10) ** -20


class TestTableCheck:
    def test_bundled_corpus_passes(self, capsys):
        code, out, _ = invoke(capsys, "table-check", "--digits", "30")
        assert code == 0
        assert "all pass" in out

    def test_corrupted_corpus_fails(self, capsys, tmp_path):
        from psiq import bundled_corpus_path

        text = bundled_corpus_path().read_text(encoding="utf-8")
        path = tmp_path / "broken.txt"
        path.write_text(text.replace("-gamma - 2*ln(2)", "-gamma - 2*ln(3)", 1))
        code, out, _ = invoke(capsys, "table-check", "--corpus", str(path), "--digits", "30")
        assert code == 1
        assert out.count("FAIL") >= 1

    def test_cot_of_zero_is_a_failed_row(self, capsys, tmp_path):
        path = tmp_path / "cot.txt"
        path.write_text("a | 1/2 | cot(0) | x\n")
        code, out, err = invoke(capsys, "table-check", "--corpus", str(path), "--digits", "30")
        assert code == 1
        assert "FAIL" in out and "cot of zero" in out
        assert "Traceback" not in err

    def test_missing_corpus_file(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "table-check", "--corpus", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "table-check", "--digits", "30", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["allPass"] is True
        assert data["summary"]["caseCount"] == 39


class TestCompare:
    def test_small_sweep(self, capsys):
        code, out, _ = invoke(capsys, "compare", "--qmax", "8", "--digits", "30")
        assert code == 0
        assert "all pass" in out

    def test_qmax_validation(self, capsys):
        code, _, _ = invoke(capsys, "compare", "--qmax", "1")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "compare", "--qmax", "5", "--digits", "30", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["allPass"] is True
        row = data["cases"][0]
        assert set(row) == {"argument", "formulaA", "formulaB", "absDiff", "pass"}


class TestErrata:
    def test_runs_both_analyzers(self, capsys):
        code, out, _ = invoke(capsys, "errata", "--qmax", "6", "--digits", "30")
        assert code == 0
        assert "8.363(6)" in out
        assert "Jensen" in out

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "errata", "--qmax", "4", "--digits", "30", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 2
        assert all(rep["summary"]["allPass"] for rep in reports)


class TestReportExitCodes:
    """compare and errata exit 1 when any report they print has a failing
    case, in text and JSON alike, and 0 when every report passes."""

    @staticmethod
    def stub(monkeypatch, name, passed):
        case = CaseResult("1/3", "a", "b", mpmath.mpf(1), passed)
        report = ComparisonReport(title=name, digits=30, cases=(case,))
        monkeypatch.setattr(psiq.cli, name, lambda *args: report)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "gr,jensen,expected", [(True, True, 0), (False, True, 1), (True, False, 1)]
    )
    def test_errata(self, capsys, monkeypatch, fmt, gr, jensen, expected):
        self.stub(monkeypatch, "errata_gr", gr)
        self.stub(monkeypatch, "errata_jensen", jensen)
        code, out, _ = invoke(capsys, "errata", "--format", fmt)
        assert code == expected
        if fmt == "json":
            assert [r["summary"]["allPass"] for r in json.loads(out)] == [gr, jensen]
        else:
            assert out.count("FAILURES PRESENT") == 2 - gr - jensen

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("passed,expected", [(True, 0), (False, 1)])
    def test_compare(self, capsys, monkeypatch, fmt, passed, expected):
        self.stub(monkeypatch, "compare_formulas", passed)
        code, out, _ = invoke(capsys, "compare", "--format", fmt)
        assert code == expected
        if fmt == "json":
            assert json.loads(out)["summary"]["allPass"] is passed
        else:
            assert ("FAILURES PRESENT" in out) is not passed


class TestUsage:
    def test_no_arguments(self, capsys):
        assert invoke(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("command", ["exact", "eval"])
    def test_subcommand_help_exits_zero(self, capsys, command):
        code, out, err = invoke(capsys, command, "-h")
        assert code == 0
        assert f"usage: psiq {command}" in out
        assert err == ""


class TestArgumentOrder:
    """A negative rational reads the same before and after the options."""

    @pytest.mark.parametrize(
        "flags",
        [("exact", "--format", "json"), ("eval", "--digits", "30"), ("eval", "--format", "json")],
    )
    def test_flags_before_negative_rational(self, capsys, flags):
        command, *options = flags
        after = invoke(capsys, command, "-7/3", *options)
        before = invoke(capsys, command, *options, "-7/3")
        assert after[0] == 0
        assert before == after

    def test_rational_after_double_dash(self, capsys):
        assert invoke(capsys, "exact", "--", "-7/3") == invoke(capsys, "exact", "-7/3")

    def test_negative_option_value_is_checked_as_a_value(self, capsys):
        code, _, err = invoke(capsys, "eval", "1/2", "--digits", "-5")
        assert code == 2
        assert "digits must be at least 15" in err

    def test_extra_positional_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "exact", "1/2", "-1/3")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_option_value_that_starts_like_a_negative_rational(self, capsys, tmp_path, monkeypatch):
        # the path is the value of --corpus, not a rational to move behind "--"
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(capsys, "table-check", "--corpus", "-1/x.json")
        assert code == 2
        assert out == ""
        assert "No such file or directory" in err and "'-1/x.json'" in err
        (tmp_path / "-1").mkdir()
        (tmp_path / "-1" / "x.json").write_text("a | 1/2 | -gamma - 2*ln(2) | x\n")
        code, out, _ = invoke(capsys, "table-check", "--corpus", "-1/x.json", "--digits", "30")
        assert code == 0
        assert "all pass" in out

    def test_negative_rational_as_an_option_value_is_that_value(self, capsys):
        code, _, err = invoke(capsys, "eval", "1/2", "--digits", "-7/3")
        assert code == 2
        assert "invalid digit count '-7/3'" in err

    def test_abbreviated_option_reads_a_negative_looking_value(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        full = invoke(capsys, "table-check", "--corpus", "-1/x.json")
        assert full[0] == 2
        assert invoke(capsys, "table-check", "--corp", "-1/x.json") == full

    def test_abbreviated_option_before_negative_rational(self, capsys):
        expected = invoke(capsys, "eval", "-7/3", "--digits", "30")
        assert expected[0] == 0
        assert invoke(capsys, "eval", "--dig", "30", "-7/3") == expected

    def test_negative_rational_before_the_command_is_usage_error(self, capsys):
        # like any other token that is not a command name
        for first in ("-7/3", "1/2"):
            code, out, err = invoke(capsys, first, "exact")
            assert code == 2
            assert out == ""
            assert f"invalid choice: '{first}'" in err
