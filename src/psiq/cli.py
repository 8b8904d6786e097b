"""Command-line front end.

Subcommands::

    psiq exact <p/q> [--format text|json|latex]
    psiq eval <p/q> [--digits D] [--format text|json]
    psiq table-check [--corpus PATH] [--digits D] [--format text|json]
    psiq compare [--qmax N] [--digits D] [--format text|json]
    psiq errata [--qmax N] [--digits D] [--format text|json]

argparse reads every option and the positional p/q; the p/q text is then
parsed by :func:`psiq.rationals.parse_rational`.  Every token that starts
with "-" and a digit is a value, never an option: a negative p/q may stand
before or after the options (``psiq eval -7/3 --digits 30``), and an option
reads such a token as its value (``--corpus -1/x.json``).

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error (including malformed rationals), 3 pole or domain error.  Results go
to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from . import _load
from .closedform import MIN_DIGITS, ClosedForm, render
from .formulas import psi_closed
from .rationals import PoleError, parse_rational

if TYPE_CHECKING:
    from .verification import ComparisonReport

__all__ = ["main", "run"]

# the numerics and verification names the handlers use are loaded from
# their defining modules the first time they are looked up, through the
# package's table (PEP 562): exact then loads no mpmath, and eval no
# verification.  The handlers look them up on this module, whose __getattr__
# a bare global would bypass; under ``python -m psiq.cli`` it is __main__
_lazy = sys.modules[__name__]


def __getattr__(name: str):
    return _load(name, globals(), __name__)


DEFAULT_DIGITS = 50
DEFAULT_QMAX = 40

# argparse reads a token that this pattern of its parser matches as a value,
# never as an option.  Its own pattern admits only negative decimal numbers
# ("-1", "-.5"); this one admits every token that starts with "-" and a digit
# ("-7/3", "-1/x.json").  argparse has no public hook for it
_NEGATIVE_NUMBER = re.compile(r"-\d")


def _bounded_int(minimum: int, name: str, noun: str) -> Callable[[str], int]:
    """An argparse type for an int of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid {noun} {text!r}") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{name} must be at least {minimum}")
        return value

    return parse


def _print_report(report: ComparisonReport, fmt: str) -> None:
    if fmt == "json":
        print(report.to_json())
    else:
        print(report.to_text())


def _cmd_exact(r: Fraction, form: ClosedForm, fmt: str) -> int:
    if fmt == "json":
        import json  # only JSON output loads json

        print(
            json.dumps(
                {
                    "argument": str(r),
                    "closedForm": render(form, "plain"),
                    "latex": render(form, "latex"),
                }
            )
        )
    elif fmt == "latex":
        print(render(form, "latex"))
    else:
        print(render(form, "plain"))
    return 0


def _cmd_eval(r: Fraction, form: ClosedForm, digits: int, fmt: str) -> int:
    ctx = _lazy.EvalContext(digits)
    text = _lazy.format_decimal(_lazy.eval_closed_form(form, ctx), digits)
    if fmt == "json":
        import json

        print(json.dumps({"argument": str(r), "digits": digits, "value": text}))
    else:
        print(text)
    return 0


def _cmd_table_check(corpus: Optional[str], digits: int, fmt: str) -> int:
    path = corpus if corpus is not None else _lazy.bundled_corpus_path()
    try:
        entries = _lazy.load_corpus(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = _lazy.verify_tables(entries, _lazy.EvalContext(digits))
    _print_report(report, fmt)
    return 0 if report.all_pass else 1


def _cmd_compare(qmax: int, digits: int, fmt: str) -> int:
    report = _lazy.compare_formulas(qmax, _lazy.EvalContext(digits))
    _print_report(report, fmt)
    return 0 if report.all_pass else 1


def _cmd_errata(qmax: int, digits: int, fmt: str) -> int:
    ctx = _lazy.EvalContext(digits)
    gr_report = _lazy.errata_gr(qmax, ctx)
    jensen_report = _lazy.errata_jensen(ctx)
    if fmt == "json":
        import json

        print(json.dumps([gr_report.to_json_dict(), jensen_report.to_json_dict()], indent=2))
    else:
        print(gr_report.to_text())
        print(jensen_report.to_text())
    return 0 if (gr_report.all_pass and jensen_report.all_pass) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psiq",
        description="Exact closed forms and high-precision values of the"
        " digamma function at rational arguments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    digits = _bounded_int(MIN_DIGITS, "digits", "digit count")
    qmax = _bounded_int(2, "qmax", "qmax")

    p_exact = sub.add_parser("exact", help="print the exact closed form of psi(p/q)")
    p_exact.add_argument("rational", help="the argument p/q, e.g. 1/2 or -7/3")
    p_exact.add_argument("--format", choices=("text", "json", "latex"), default="text")

    p_eval = sub.add_parser("eval", help="evaluate psi(p/q) to D significant digits")
    p_eval.add_argument("rational", help="the argument p/q, e.g. 1/2 or -7/3")
    p_eval.add_argument("--digits", type=digits, default=DEFAULT_DIGITS)
    p_eval.add_argument("--format", choices=("text", "json"), default="text")

    p_table = sub.add_parser("table-check", help="verify the corpus of published values")
    p_table.add_argument("--corpus", default=None, help="corpus file (default: bundled)")
    p_table.add_argument("--digits", type=digits, default=DEFAULT_DIGITS)
    p_table.add_argument("--format", choices=("text", "json"), default="text")

    p_compare = sub.add_parser(
        "compare", help="cross-check the Gauss, Nielsen and Murty-Saradha forms"
    )
    p_compare.add_argument("--qmax", type=qmax, default=DEFAULT_QMAX)
    p_compare.add_argument("--digits", type=digits, default=DEFAULT_DIGITS)
    p_compare.add_argument("--format", choices=("text", "json"), default="text")

    p_errata = sub.add_parser(
        "errata", help="measure published-formula discrepancies (GR 8.363(6), Jensen)"
    )
    p_errata.add_argument("--qmax", type=qmax, default=DEFAULT_QMAX)
    p_errata.add_argument("--digits", type=digits, default=DEFAULT_DIGITS)
    p_errata.add_argument("--format", choices=("text", "json"), default="text")

    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch a command line; returns the process exit code.

    Python's int<->str digit limit is lifted for the call and restored after.
    """
    # a rational argument may have more digits than the default int<->str
    # limit allows, both where it is parsed and in str(r) of JSON output
    if not hasattr(sys, "set_int_max_str_digits"):
        return _dispatch(argv)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _dispatch(argv)
    finally:
        sys.set_int_max_str_digits(previous)


def _dispatch(argv: Optional[Sequence[str]]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command in ("exact", "eval"):
        try:
            r = parse_rational(args.rational)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            form = psi_closed(r)
        except PoleError:
            print("digamma pole at non-positive integer", file=sys.stderr)
            return 3
        if args.command == "exact":
            return _cmd_exact(r, form, args.format)
        return _cmd_eval(r, form, args.digits, args.format)
    if args.command == "table-check":
        return _cmd_table_check(args.corpus, args.digits, args.format)
    if args.command == "compare":
        return _cmd_compare(args.qmax, args.digits, args.format)
    if args.command == "errata":
        return _cmd_errata(args.qmax, args.digits, args.format)
    raise AssertionError(f"unhandled command {args.command!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
