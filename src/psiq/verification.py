"""Corpus loading, table verification, formula-comparison sweeps, errata.

The bundled corpus is a plain-text table of published closed-form digamma
values (negative arguments, unit-interval arguments, arguments above 1, and
the corrected Jensen values); every verification run compares the corpus
expressions against this package's own closed forms at a configurable
precision and reports each case individually - failures are report rows,
never exceptions, and reports are deterministic for a fixed precision.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Callable, Union

import mpmath

from . import _Record, formulas
from .expressions import (
    ConstExpr,
    ExprDomainError,
    eval_const_expr,
    parse_const_expr,
)
from .numerics import (
    BigReal,
    EvalContext,
    comparison_tolerance,
    eval_closed_form,
)
from .rationals import is_pole, parse_rational

__all__ = [
    "CaseResult",
    "ComparisonReport",
    "TableEntry",
    "bundled_corpus_path",
    "bundled_errata_path",
    "compare_formulas",
    "errata_gr",
    "errata_jensen",
    "load_corpus",
    "verify_tables",
]

# Fixed threshold above which a deliberately wrong published form counts as
# detected; the Jensen misprint gap is about 0.199.
ERRATA_DETECTION_THRESHOLD = Fraction(1, 1000)


class TableEntry(_Record):
    """One corpus record: label, rational argument, expression, citation."""

    __slots__ = ("label", "argument", "expr", "expr_text", "source")
    label: str
    argument: Fraction
    expr: ConstExpr
    expr_text: str
    source: str


def _noise_floor(digits: int) -> mpmath.mpf:
    return _power_of_ten(-(digits + 5), mpmath.mp.prec)


@functools.lru_cache  # at most 128 entries, one per exponent and global precision
def _power_of_ten(exponent: int, prec: int) -> mpmath.mpf:
    return mpmath.mpf(10) ** exponent


def diff_text(diff: BigReal, digits: int) -> str:
    """|diff| to 6 significant digits for a report at ``digits`` digits.

    Values are evaluated at digits + guard working digits, so two equal
    quantities may differ by rounding noise far below the reported digits;
    any difference below 10^-(digits+5) prints as 0.0, so the text does not
    change with the summation order.  The floor is computed once per digits.
    """
    if diff < _noise_floor(digits):
        return "0.0"
    return mpmath.nstr(diff, 6)


def _portable(diff: BigReal) -> mpmath.mpf:
    """diff as an mpf of mpmath's global context, bit for bit, so that a
    report pickles: the classes of the per-precision contexts do not, and
    mpmath.mpf(diff) would round to the global precision."""
    return mpmath.mp.make_mpf(diff._mpf_)


class CaseResult(_Record):
    __slots__ = ("argument", "formula_a", "formula_b", "abs_diff", "passed")
    argument: str
    formula_a: str
    formula_b: str
    abs_diff: BigReal
    passed: bool

    def to_json_dict(self, digits: int) -> dict:
        return {
            "argument": self.argument,
            "formulaA": self.formula_a,
            "formulaB": self.formula_b,
            "absDiff": diff_text(self.abs_diff, digits),
            "pass": self.passed,
        }


class ComparisonReport(_Record):
    """Every case attempted, in deterministic order, plus summary maxima."""

    __slots__ = ("title", "digits", "cases", "notes")
    _defaults = {"notes": ()}
    title: str
    digits: int
    cases: tuple[CaseResult, ...]
    notes: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return all(case.passed for case in self.cases)

    @property
    def max_abs_diff(self) -> BigReal:
        worst = mpmath.mpf(0)
        for case in self.cases:
            if case.abs_diff > worst:
                worst = case.abs_diff
        return worst

    @property
    def argument_count(self) -> int:
        return len({case.argument for case in self.cases})

    def to_text(self) -> str:
        lines = [f"{self.title} (digits={self.digits})"]
        for case in self.cases:
            status = "PASS" if case.passed else "FAIL"
            lines.append(
                f"  {status}  {case.argument:>8}  {case.formula_a} vs {case.formula_b}"
                f"  |diff| = {diff_text(case.abs_diff, self.digits)}"
            )
        lines.append(
            f"  summary: {len(self.cases)} cases over {self.argument_count} arguments,"
            f" max |diff| = {diff_text(self.max_abs_diff, self.digits)},"
            f" {'all pass' if self.all_pass else 'FAILURES PRESENT'}"
        )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "title": self.title,
            "digits": self.digits,
            "cases": [case.to_json_dict(self.digits) for case in self.cases],
            "summary": {
                "caseCount": len(self.cases),
                "argumentCount": self.argument_count,
                "maxAbsDiff": diff_text(self.max_abs_diff, self.digits),
                "allPass": self.all_pass,
            },
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def _bundled(name: str) -> Path:
    # importlib.resources loads inspect on Python 3.12 and later, so only
    # the commands that read a bundled file import it
    from importlib import resources

    return Path(str(resources.files("psiq") / "data" / name))


def bundled_corpus_path() -> Path:
    return _bundled("tables.txt")


def bundled_errata_path() -> Path:
    return _bundled("jensen_errata.txt")


def load_corpus(path: Union[str, Path]) -> list[TableEntry]:
    """Parse a corpus file: `label | p/q | expression | source` per line.

    '#' comments and blank lines are ignored; malformed lines, duplicate
    labels and pole arguments raise ValueError with the line number.
    """
    path = Path(path)
    entries: list[TableEntry] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [part.strip() for part in line.split("|")]
        if len(parts) != 4:
            raise ValueError(
                f"{path.name}:{lineno}: expected 'label | p/q | expression | source',"
                f" got {len(parts)} fields"
            )
        label, argument_text, expr_text, source = parts
        if label in seen:
            raise ValueError(f"{path.name}:{lineno}: duplicate label {label!r}")
        seen.add(label)
        try:
            argument = parse_rational(argument_text)
        except ValueError as exc:
            raise ValueError(f"{path.name}:{lineno}: {exc}") from exc
        if is_pole(argument):
            raise ValueError(f"{path.name}:{lineno}: argument {argument} is a pole")
        try:
            expr = parse_const_expr(expr_text)
        except ValueError as exc:
            raise ValueError(f"{path.name}:{lineno}: {exc}") from exc
        entries.append(TableEntry(label, argument, expr, expr_text, source))
    if not entries:
        warnings.warn(f"corpus file {path} contains no entries", stacklevel=2)
    return entries


# ---------------------------------------------------------------------------
# Verification runs
# ---------------------------------------------------------------------------


def verify_tables(entries: list[TableEntry], ctx: EvalContext) -> ComparisonReport:
    """Compare each corpus expression against this package's closed form.

    Failures are report rows, never exceptions: an expression whose
    evaluation violates a domain constraint yields an infinite difference.
    """
    tolerance = comparison_tolerance(ctx)
    cases = []
    notes = [f"pass tolerance 10^-{ctx.digits - 10}"]
    for entry in entries:
        ours = eval_closed_form(formulas.psi_closed(entry.argument), ctx)
        try:
            published = eval_const_expr(entry.expr, ctx)
            diff = abs(ours - published)
        except ExprDomainError as exc:
            diff = ctx.mp.inf
            notes.append(f"{entry.label}: {exc}")
        cases.append(
            CaseResult(
                argument=str(entry.argument),
                formula_a="psi-closed-form",
                formula_b=f"corpus:{entry.label}",
                abs_diff=_portable(diff),
                passed=bool(diff < tolerance),
            )
        )
    return ComparisonReport(
        title="corpus table verification",
        digits=ctx.digits,
        cases=tuple(cases),
        notes=tuple(notes),
    )


def _coprime_pairs(qmax: int):
    for q in range(2, qmax + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                yield p, q


def _pairwise_cases(
    qmax: int, ctx: EvalContext, builders: tuple[tuple[str, Callable], ...]
) -> tuple[CaseResult, ...]:
    """Every pair of the (name, builder) constructions, in order, compared at
    every reduced p/q with 1 <= p < q <= qmax."""
    tolerance = comparison_tolerance(ctx)
    cases = []
    for p, q in _coprime_pairs(qmax):
        values = [(name, eval_closed_form(build(p, q), ctx)) for name, build in builders]
        for (name_a, a), (name_b, b) in itertools.combinations(values, 2):
            diff = abs(a - b)
            cases.append(
                CaseResult(f"{p}/{q}", name_a, name_b, _portable(diff), bool(diff < tolerance))
            )
    return tuple(cases)


def compare_formulas(qmax: int, ctx: EvalContext) -> ComparisonReport:
    """Pairwise agreement of the Gauss, Nielsen and Murty-Saradha forms over
    all reduced p/q with 1 <= p < q <= qmax."""
    if qmax < 2:
        raise ValueError("compare_formulas requires qmax >= 2")
    builders = (
        ("gauss", formulas.gauss_1813),
        ("nielsen", formulas.nielsen),
        ("murty-saradha", formulas.murty_saradha),
    )
    return ComparisonReport(
        title=f"cross-formula agreement sweep, q <= {qmax}",
        digits=ctx.digits,
        cases=_pairwise_cases(qmax, ctx, builders),
        notes=(f"pass tolerance 10^-{ctx.digits - 10}",),
    )


def errata_gr(qmax: int, ctx: EvalContext) -> ComparisonReport:
    """Measure the shortened-sum variant (Gradshteyn-Ryzhik 8.363(6), upper
    limit floor((q+1)/2)-1) against the doubled-sum base form."""
    if qmax < 2:
        raise ValueError("errata_gr requires qmax >= 2")
    builders = (("gr-8.363(6)", formulas.gr_variant), ("murty-saradha", formulas.murty_saradha))
    m = ctx.mp
    # direct numeric measurement of the summand the shortened sum drops
    dropped = abs(m.cos(m.pi) * m.log(m.sin(m.pi / 2)))
    notes = (
        "odd q: both upper limits equal (q-1)/2, the forms are identical",
        "even q: the shortened sum drops only the j = q/2 summand"
        " 2*cos(pi*p)*ln(sin(pi/2)), which is exactly zero",
        f"measured |dropped summand| at this precision: {mpmath.nstr(dropped, 6)}",
        "despite being flagged as wrong in the literature, the variant agrees"
        " to working precision for every argument swept",
    )
    return ComparisonReport(
        title=f"shortened-sum variant (GR 8.363(6)) sweep, q <= {qmax}",
        digits=ctx.digits,
        cases=_pairwise_cases(qmax, ctx, builders),
        notes=notes,
    )


def errata_jensen(ctx: EvalContext) -> ComparisonReport:
    """Check the corrected Jensen values and detect the as-printed misprints.

    Corrected forms must match psi(3/5) and psi(4/5) to the comparison
    tolerance; the misprinted forms must differ by more than the fixed
    detection threshold (their pass flag asserts the misprint is detected).
    """
    threshold = ctx.from_fraction(ERRATA_DETECTION_THRESHOLD)
    corrected = {
        e.label: e
        for e in load_corpus(bundled_corpus_path())
        if e.label.endswith("-jensen")
    }
    misprinted = load_corpus(bundled_errata_path())
    labels = ("psi(3/5)-jensen", "psi(4/5)-jensen")
    cases = list(verify_tables([corrected[label] for label in labels], ctx).cases)
    notes = [f"corrected-form pass tolerance 10^-{ctx.digits - 10};"
             f" misprint detection threshold {float(ERRATA_DETECTION_THRESHOLD)}"]
    for entry, case in zip(misprinted, verify_tables(misprinted, ctx).cases):
        detected = bool(case.abs_diff > threshold)
        cases.append(
            CaseResult(case.argument, case.formula_a, case.formula_b, case.abs_diff, detected)
        )
        notes.append(f"measured gap for {entry.label}: {mpmath.nstr(case.abs_diff, 6)}")
    return ComparisonReport(
        title="Jensen (1915) p.147 errata check",
        digits=ctx.digits,
        cases=tuple(cases),
        notes=tuple(notes),
    )
