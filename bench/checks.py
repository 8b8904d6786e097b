"""Checks of psiq's outputs against computations made apart from psiq.

Nothing here imports psiq.  Decimal values are compared with mpmath's own
digamma, rendered closed forms are evaluated by a small evaluator over
Python's ``ast`` (not psiq's expression parser), and report case counts come
from Euler's totient computed here.  Each check returns None when the output
is right and a one-line reason when it is not.
"""

from __future__ import annotations

import ast
import math
import operator
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Optional

import mpmath

# psiq's accuracy contract for decimal output
ULP_TOLERANCE = 10
# misprints must differ from the true value by more than this
MISPRINT_GAP = 1e-3
FORM_DPS = 50


def reference_digamma(r: Fraction, dps: int):
    """mpmath's digamma at ``dps`` working digits."""
    with mpmath.workdps(dps):
        return mpmath.digamma(mpmath.mpf(r.numerator) / r.denominator)


def check_decimal(text: str, digits: int, reference) -> Optional[str]:
    """``text`` has ``digits`` significant digits and lies within
    ULP_TOLERANCE units in its last digit of ``reference``."""
    try:
        value = Decimal(text.strip())
    except InvalidOperation:
        return f"not a decimal number: {text[:40]!r}"
    if not value.is_finite():
        return f"not finite: {text[:40]!r}"
    _, mantissa, exponent = value.as_tuple()
    if len(mantissa) != digits:
        return f"{len(mantissa)} significant digits, expected {digits}"
    with mpmath.workdps(digits + 10):
        error = abs(mpmath.mpf(str(value)) - reference)
        ulps = error / mpmath.mpf(10) ** exponent
        if ulps > ULP_TOLERANCE:
            return f"off by {mpmath.nstr(ulps, 4)} units in the last digit"
    return None


_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}
_FUNCTIONS = {"ln": mpmath.log, "sin": mpmath.sin, "cos": mpmath.cos, "cot": mpmath.cot}


def _evaluate(node):
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return mpmath.mpf(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return +mpmath.pi
    if isinstance(node, ast.Name) and node.id == "gamma":
        return +mpmath.euler
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_evaluate(node.operand)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_evaluate(node.left), _evaluate(node.right))
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _FUNCTIONS
        and len(node.args) == 1
        and not node.keywords
    ):
        return _FUNCTIONS[node.func.id](_evaluate(node.args[0]))
    raise ValueError(f"unexpected syntax: {ast.dump(node)[:60]}")


def evaluate_form(text: str, dps: int = FORM_DPS):
    """Value of a plain-text closed form (psiq's `exact` output grammar)."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # shift corrections have >4300-digit literals
    try:
        tree = ast.parse(text.strip(), mode="eval")
    finally:
        sys.set_int_max_str_digits(limit)
    with mpmath.workdps(dps):
        return +_evaluate(tree.body)


def check_form(text: str, r: Fraction, dps: int = FORM_DPS) -> Optional[str]:
    """The rendered form evaluates to mpmath's digamma(r) within 10^-(dps-10)."""
    try:
        value = evaluate_form(text, dps)
    except (SyntaxError, ValueError, ZeroDivisionError) as exc:
        return f"form does not evaluate: {exc}"
    reference = reference_digamma(r, dps)
    with mpmath.workdps(dps):
        error = abs(value - reference) / max(1, abs(reference))
        if error > mpmath.mpf(10) ** (10 - dps):
            return f"form value differs from digamma({r}) by {mpmath.nstr(error, 4)}"
    return None


def totient(n: int) -> int:
    result, m, f = n, n, 2
    while f * f <= m:
        if m % f == 0:
            while m % f == 0:
                m //= f
            result -= result // f
        f += 1
    if m > 1:
        result -= result // m
    return result


def coprime_arguments(qmax: int) -> list[str]:
    """Every reduced p/q with 1 <= p < q <= qmax, as 'p/q' text."""
    return [f"{p}/{q}" for q in range(2, qmax + 1) for p in range(1, q) if math.gcd(p, q) == 1]


def _check_report(report: dict, digits: int, expected_cases: int) -> Optional[str]:
    cases = report.get("cases")
    if not isinstance(cases, list):
        return "report has no case list"
    if report.get("digits") != digits:
        return f"report digits {report.get('digits')}, expected {digits}"
    if len(cases) != expected_cases:
        return f"{len(cases)} cases, expected {expected_cases}"
    failing = [c for c in cases if c.get("pass") is not True]
    if failing:
        return f"{len(failing)} failing cases, first {failing[0].get('argument')}"
    summary = report.get("summary", {})
    if summary.get("caseCount") != len(cases) or summary.get("allPass") is not True:
        return "summary disagrees with the cases"
    return None


def _check_arguments(cases: list, qmax: int, per_argument: int) -> Optional[str]:
    counts: dict[str, int] = {}
    for case in cases:
        counts[case.get("argument")] = counts.get(case.get("argument"), 0) + 1
    expected = {a: per_argument for a in coprime_arguments(qmax)}
    if counts != expected:
        missing = sorted(set(expected) - set(counts))[:3]
        return f"arguments differ from all reduced p/q with q <= {qmax}; missing {missing}"
    return None


def check_compare(report: dict, qmax: int, digits: int) -> Optional[str]:
    """3 * sum(phi(q), q <= qmax) passing cases, three per reduced argument."""
    phi_sum = sum(totient(q) for q in range(2, qmax + 1))
    return _check_report(report, digits, 3 * phi_sum) or _check_arguments(
        report["cases"], qmax, 3
    )


def check_errata(reports: list, qmax: int, digits: int) -> Optional[str]:
    """GR sweep over every reduced argument plus the four Jensen cases, all
    passing, with both misprint gaps above MISPRINT_GAP."""
    if not isinstance(reports, list) or len(reports) != 2:
        return "expected two reports (GR 8.363(6) and Jensen)"
    gr, jensen = reports
    phi_sum = sum(totient(q) for q in range(2, qmax + 1))
    reason = (
        _check_report(gr, digits, phi_sum)
        or _check_arguments(gr["cases"], qmax, 1)
        or _check_report(jensen, digits, 4)
    )
    if reason:
        return reason
    gaps = [float(c["absDiff"]) for c in jensen["cases"] if "misprint" in c.get("formulaB", "")]
    if len(gaps) != 2 or min(gaps) <= MISPRINT_GAP:
        return f"misprint gaps {gaps}, expected two above {MISPRINT_GAP}"
    return None


def check_tables(report: dict, digits: int, corpus_entries: int) -> Optional[str]:
    """One passing case per corpus entry."""
    return _check_report(report, digits, corpus_entries)


def count_corpus_entries(path) -> int:
    """Records in a corpus file: lines that are neither blank nor comments."""
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip() and not line.lstrip().startswith("#"))
