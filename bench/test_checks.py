"""Self-tests of the benchmark's output checks.

    python3 bench/test_checks.py        (or: python3 -m pytest bench)

Each check must accept psiq's real output and reject a value 11 units off
in its last digit, a report missing one case, and a rendered form whose
value is wrong.
"""

import contextlib
import io
import json
import sys
import unittest
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import mpmath

import checks

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import psiq  # noqa: E402
import psiq.cli  # noqa: E402


def cli_json(*argv: str):
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        psiq.cli.run([*argv, "--format", "json"])
    return json.loads(captured.getvalue())


def shift_last_digit(text: str, units: int) -> str:
    value = Decimal(text)
    exponent = value.as_tuple().exponent
    with localcontext() as ctx:
        ctx.prec = len(text) + 10
        return str(value + units * Decimal(1).scaleb(exponent))


class DecimalCheck(unittest.TestCase):
    digits = 60

    def setUp(self):
        self.r = Fraction(2, 7) + 3
        ctx = psiq.EvalContext(self.digits)
        self.text = psiq.format_decimal(psiq.eval_closed_form(psiq.psi_closed(self.r), ctx), self.digits)
        self.reference = checks.reference_digamma(self.r, self.digits + 10)

    def test_accepts_psiq_value(self):
        self.assertIsNone(checks.check_decimal(self.text, self.digits, self.reference))

    def test_accepts_nine_units_off(self):
        # the printed value is itself up to half a unit from the true one
        for units in (9, -9):
            off = shift_last_digit(self.text, units)
            self.assertIsNone(checks.check_decimal(off, self.digits, self.reference))

    def test_rejects_eleven_units_off(self):
        for units in (11, -11):
            off = shift_last_digit(self.text, units)
            self.assertEqual(len(Decimal(off).as_tuple().digits), self.digits)
            self.assertIsNotNone(checks.check_decimal(off, self.digits, self.reference))

    def test_rejects_wrong_digit_count(self):
        self.assertIsNotNone(checks.check_decimal(self.text[:-1], self.digits, self.reference))

    def test_rejects_garbage(self):
        self.assertIsNotNone(checks.check_decimal("nan", self.digits, self.reference))
        self.assertIsNotNone(checks.check_decimal("", self.digits, self.reference))


class FormCheck(unittest.TestCase):
    def test_accepts_documented_forms(self):
        self.assertIsNone(checks.check_form("-gamma - 2*ln(2)", Fraction(1, 2)))
        self.assertIsNone(checks.check_form(
            "117/28 - gamma + (1/2)*pi*cot(pi*1/3) - ln(2) - ln(3)"
            " + (2*cos(2*pi*1/3))*ln(sin(pi*1/3))",
            Fraction(-7, 3),
        ))

    def test_accepts_psiq_shifted_form(self):
        r = 2000 + Fraction(1, 3)
        self.assertIsNone(checks.check_form(psiq.render(psiq.psi_closed(r)), r))

    def test_rejects_wrong_forms(self):
        self.assertIsNotNone(checks.check_form("-gamma - ln(2)", Fraction(1, 2)))
        r = 2000 + Fraction(1, 3)
        text = psiq.render(psiq.psi_closed(r))
        lead = 1 if text.startswith("-") else 0  # leading digit of the shift correction
        wrong = text[:lead] + str(int(text[lead]) % 9 + 1) + text[lead + 1:]
        self.assertIsNotNone(checks.check_form(wrong, r))
        self.assertIsNotNone(checks.check_form(text.replace("gamma", "pi", 1), r))

    def test_rejects_foreign_syntax(self):
        self.assertIsNotNone(checks.check_form("__import__('os')", Fraction(1, 2)))
        self.assertIsNotNone(checks.check_form("2**3", Fraction(1, 2)))

    def test_evaluates_literals_beyond_the_int_string_limit(self):
        big = "1" + "0" * 5000
        with mpmath.workdps(50):
            value = checks.evaluate_form(f"{big}/{big} - gamma")
            self.assertLess(abs(value - (1 - mpmath.euler)), mpmath.mpf(10) ** -45)


class ReportChecks(unittest.TestCase):
    qmax = 7
    digits = 50

    @classmethod
    def setUpClass(cls):
        cls.compare = cli_json("compare", "--qmax", str(cls.qmax), "--digits", str(cls.digits))
        cls.errata = cli_json("errata", "--qmax", str(cls.qmax), "--digits", str(cls.digits))
        cls.tables = cli_json("table-check", "--digits", str(cls.digits))
        cls.corpus_entries = checks.count_corpus_entries(SRC / "psiq" / "data" / "tables.txt")

    def copy(self, report):
        return json.loads(json.dumps(report))

    def test_totient(self):
        self.assertEqual([checks.totient(n) for n in range(1, 13)],
                         [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4])
        self.assertEqual(len(checks.coprime_arguments(40)), 489)

    def test_accepts_psiq_reports(self):
        self.assertEqual(self.corpus_entries, 39)
        self.assertIsNone(checks.check_compare(self.compare, self.qmax, self.digits))
        self.assertIsNone(checks.check_errata(self.errata, self.qmax, self.digits))
        self.assertIsNone(checks.check_tables(self.tables, self.digits, self.corpus_entries))

    def test_rejects_reports_missing_one_case(self):
        for report, check in (
            (self.compare, lambda r: checks.check_compare(r, self.qmax, self.digits)),
            (self.tables, lambda r: checks.check_tables(r, self.digits, self.corpus_entries)),
        ):
            short = self.copy(report)
            short["cases"].pop(3)
            short["summary"]["caseCount"] -= 1
            self.assertIsNotNone(check(short))
        for which in (0, 1):
            short = self.copy(self.errata)
            short[which]["cases"].pop(0)
            short[which]["summary"]["caseCount"] -= 1
            self.assertIsNotNone(checks.check_errata(short, self.qmax, self.digits))

    def test_rejects_a_case_for_the_wrong_argument(self):
        moved = self.copy(self.compare)
        moved["cases"][0]["argument"] = "2/4"
        self.assertIsNotNone(checks.check_compare(moved, self.qmax, self.digits))

    def test_rejects_failing_case(self):
        failing = self.copy(self.compare)
        failing["cases"][5]["pass"] = False
        self.assertIsNotNone(checks.check_compare(failing, self.qmax, self.digits))

    def test_rejects_small_misprint_gap(self):
        small = self.copy(self.errata)
        for case in small[1]["cases"]:
            if "misprint" in case["formulaB"]:
                case["absDiff"] = "0.0009"
                break
        self.assertIsNotNone(checks.check_errata(small, self.qmax, self.digits))

    def test_rejects_other_precision(self):
        self.assertIsNotNone(checks.check_tables(self.tables, self.digits + 1, self.corpus_entries))


if __name__ == "__main__":
    unittest.main()
