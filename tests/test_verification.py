import json
import math
import pickle

import mpmath
import pytest

from psiq import (
    bundled_corpus_path,
    bundled_errata_path,
    compare_formulas,
    errata_gr,
    errata_jensen,
    eval_closed_form,
    load_corpus,
    psi_closed,
    render,
    verify_tables,
)
from psiq.expressions import eval_const_expr, parse_const_expr
from psiq.numerics import comparison_tolerance
from psiq.verification import CaseResult, ComparisonReport, diff_text

from conftest import reference_digamma


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(bundled_corpus_path())


def totient_sum(qmax):
    return sum(
        1 for q in range(2, qmax + 1) for p in range(1, q) if math.gcd(p, q) == 1
    )


class TestLoadCorpus:
    def test_bundled_has_39_entries(self, corpus):
        assert len(corpus) == 39

    def test_labels_unique(self, corpus):
        labels = [e.label for e in corpus]
        assert len(set(labels)) == len(labels)

    def test_entries_well_formed(self, corpus):
        for entry in corpus:
            assert entry.expr is not None
            assert entry.source
            assert entry.argument.denominator >= 1

    def test_bundled_errata_has_two_entries(self):
        assert len(load_corpus(bundled_errata_path())) == 2

    def test_empty_file_warns(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n\n")
        with pytest.warns(UserWarning, match="no entries"):
            assert load_corpus(path) == []

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# comment\nonly | three | fields\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            load_corpus(path)

    def test_duplicate_label_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        line = "x | 1/2 | -gamma - 2*ln(2) | somewhere\n"
        path.write_text(line + line)
        with pytest.raises(ValueError, match="duplicate label"):
            load_corpus(path)

    def test_pole_argument_rejected(self, tmp_path):
        path = tmp_path / "pole.txt"
        path.write_text("x | -2 | gamma | nowhere\n")
        with pytest.raises(ValueError, match="pole"):
            load_corpus(path)

    def test_bad_expression_reports_line_number(self, tmp_path):
        path = tmp_path / "expr.txt"
        path.write_text("x | 1/2 | 2*@ | nowhere\n")
        with pytest.raises(ValueError, match="expr.txt:1"):
            load_corpus(path)

    def test_corpus_against_external_reference(self, corpus, ctx50):
        # every published expression equals an external digamma to high precision
        for entry in corpus:
            value = eval_const_expr(entry.expr, ctx50)
            assert abs(value - reference_digamma(entry.argument)) < ctx50.mp.mpf(10) ** -45, entry.label


class TestVerifyTables:
    def test_full_corpus_passes_at_60_digits(self, corpus, ctx60):
        report = verify_tables(corpus, ctx60)
        assert report.all_pass
        assert len(report.cases) == 39
        assert report.max_abs_diff < ctx60.mp.mpf(10) ** -50

    def test_single_entry_psi_half(self, corpus, ctx60):
        entry = [e for e in corpus if e.label == "psi(1/2)"]
        report = verify_tables(entry, ctx60)
        assert report.all_pass
        assert report.max_abs_diff < ctx60.mp.mpf(10) ** -50

    def test_corrupted_entry_fails_exactly_that_row(self, tmp_path, ctx30):
        text = bundled_corpus_path().read_text(encoding="utf-8")
        corrupted = text.replace(
            "psi(1/2)   | 1/2   | -gamma - 2*ln(2)",
            "psi(1/2)   | 1/2   | -gamma - 2*ln(3)",
        )
        assert corrupted != text
        path = tmp_path / "corrupted.txt"
        path.write_text(corrupted)
        report = verify_tables(load_corpus(path), ctx30)
        failures = [c for c in report.cases if not c.passed]
        assert len(failures) == 1
        assert failures[0].formula_b == "corpus:psi(1/2)"

    def test_small_perturbation_flips_exactly_one_row(self, tmp_path, ctx30):
        text = bundled_corpus_path().read_text(encoding="utf-8")
        target = "psi(-7/3)  | -7/3  | -gamma + 117/28 + pi*sqrt(3)/6 - 3*ln(3)/2"
        assert target in text
        path = tmp_path / "perturbed.txt"
        path.write_text(text.replace(target, target + " + 1/1000000"))
        report = verify_tables(load_corpus(path), ctx30)
        failures = [c for c in report.cases if not c.passed]
        assert [f.formula_b for f in failures] == ["corpus:psi(-7/3)"]

    def test_domain_error_becomes_failed_row(self, tmp_path, ctx30):
        path = tmp_path / "domain.txt"
        path.write_text(
            "ok  | 1/2 | -gamma - 2*ln(2) | fine\n"
            "bad | 1/3 | ln(2-3)          | ln of a negative value\n"
        )
        report = verify_tables(load_corpus(path), ctx30)
        assert [c.passed for c in report.cases] == [True, False]
        assert any("ln of non-positive" in note for note in report.notes)

    def test_deterministic_reports(self, corpus, ctx30):
        a = verify_tables(corpus, ctx30)
        b = verify_tables(corpus, ctx30)
        assert a.to_text() == b.to_text()
        assert a.to_json() == b.to_json()

    def test_round_trip_of_closed_forms_over_corpus(self, corpus, ctx30):
        tol = comparison_tolerance(ctx30)
        for entry in corpus:
            form = psi_closed(entry.argument)
            reparsed = eval_const_expr(parse_const_expr(render(form)), ctx30)
            assert abs(reparsed - eval_closed_form(form, ctx30)) < tol, entry.label


class TestCompareFormulas:
    def test_qmax_two_single_case(self, ctx50):
        report = compare_formulas(2, ctx50)
        assert report.argument_count == 1
        assert len(report.cases) == 3
        assert report.max_abs_diff == 0  # all three forms are structurally psi(1/2)

    def test_coverage_matches_totient_sum(self, ctx30):
        report = compare_formulas(12, ctx30)
        assert report.argument_count == totient_sum(12)
        assert len(report.cases) == 3 * totient_sum(12)

    def test_agreement_at_qmax_12(self, ctx50):
        report = compare_formulas(12, ctx50)
        assert report.all_pass
        assert report.max_abs_diff < ctx50.mp.mpf(10) ** -40

    def test_qmax_validation(self, ctx30):
        with pytest.raises(ValueError):
            compare_formulas(1, ctx30)

    def test_json_shape(self, ctx30):
        report = compare_formulas(3, ctx30)
        data = json.loads(report.to_json())
        assert {"argument", "formulaA", "formulaB", "absDiff", "pass"} == set(
            data["cases"][0]
        )
        assert data["summary"]["argumentCount"] == totient_sum(3)


class TestDiffText:
    @pytest.mark.parametrize("digits", [30, 50])
    def test_rounding_noise_prints_zero(self, digits):
        noise = mpmath.mpf(10) ** -(digits + 6)
        assert diff_text(noise, digits) == "0.0"
        case = CaseResult("1/3", "a", "b", noise, True)
        report = ComparisonReport("t", digits, (case,))
        assert "|diff| = 0.0" in report.to_text()
        assert "max |diff| = 0.0," in report.to_text()
        data = json.loads(report.to_json())
        assert data["cases"][0]["absDiff"] == data["summary"]["maxAbsDiff"] == "0.0"
        assert case.abs_diff == noise  # only the text is rounded

    @pytest.mark.parametrize("digits", [30, 50])
    def test_difference_above_noise_prints_digits(self, digits):
        diff = 3 * mpmath.mpf(10) ** -(digits + 4)
        text = diff_text(diff, digits)
        assert text == mpmath.nstr(diff, 6) and text != "0.0"
        assert float(text) == pytest.approx(float(diff))


class TestErrataGr:
    def test_shortened_sum_agrees_everywhere(self, ctx50):
        report = errata_gr(12, ctx50)
        assert report.all_pass
        assert report.max_abs_diff == 0

    def test_notes_state_the_analysis(self, ctx30):
        report = errata_gr(4, ctx30)
        text = report.to_text()
        assert "j = q/2" in text
        assert "ln(sin(pi/2))" in text
        assert "exactly zero" in text


class TestErrataJensen:
    def test_corrected_match_and_misprints_detected(self, ctx50):
        report = errata_jensen(ctx50)
        assert report.all_pass
        corrected = [c for c in report.cases if c.formula_b.endswith("-jensen")]
        misprinted = [c for c in report.cases if c.formula_b.endswith("-misprint")]
        assert len(corrected) == 2 and len(misprinted) == 2
        tol = comparison_tolerance(ctx50)
        for case in corrected:
            assert case.abs_diff < tol
        for case in misprinted:
            # the misprint changes the value by a fixed constant near 0.1988
            assert mpmath.mpf("0.19") < case.abs_diff < mpmath.mpf("0.21")


class TestReportsPickle:
    """A report of a real run pickles, and its differences keep every bit."""

    @pytest.fixture(scope="class")
    def reports(self, corpus, ctx30):
        return [
            compare_formulas(4, ctx30),
            errata_gr(4, ctx30),
            errata_jensen(ctx30),
            verify_tables(corpus, ctx30),
        ]

    def test_round_trip(self, reports):
        for report in reports:
            copy = pickle.loads(pickle.dumps(report))
            assert copy.to_json() == report.to_json(), report.title
            assert copy.to_text() == report.to_text(), report.title
            diffs = [case.abs_diff._mpf_ for case in copy.cases]
            assert diffs == [case.abs_diff._mpf_ for case in report.cases], report.title

    def test_stored_difference_is_the_evaluated_one(self, corpus, ctx30):
        # a misprinted Jensen form differs by about 0.2, a value of about 150
        # bits, which an mpf of the global 53-bit context would round
        entries = [*corpus, *load_corpus(bundled_errata_path())]
        cases = verify_tables(entries, ctx30).cases
        assert max(case.abs_diff._mpf_[3] for case in cases) > 140
        for entry, case in zip(entries, cases):
            ours = eval_closed_form(psi_closed(entry.argument), ctx30)
            diff = abs(ours - eval_const_expr(entry.expr, ctx30))
            assert case.abs_diff._mpf_ == diff._mpf_, entry.label
