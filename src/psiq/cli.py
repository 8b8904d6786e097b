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
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from . import _load
from .closedform import MIN_DIGITS, render
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


def _print_json(value: object, indent: Optional[int] = None) -> None:
    import json  # only JSON output loads json

    print(json.dumps(value, indent=indent))


def _print_reports(fmt: str, *reports: ComparisonReport) -> int:
    """Print the reports to stdout; the exit code is 0 only when all pass."""
    if fmt == "json":
        dicts = [report.to_json_dict() for report in reports]
        _print_json(dicts[0] if len(dicts) == 1 else dicts, indent=2)
    else:
        for report in reports:
            print(report.to_text())
    return 0 if all(report.all_pass for report in reports) else 1


def _cmd_exact(args: argparse.Namespace) -> int:
    if args.format == "json":
        _print_json(
            {
                "argument": str(args.rational),
                "closedForm": render(args.form, "plain"),
                "latex": render(args.form, "latex"),
            }
        )
    else:
        print(render(args.form, "latex" if args.format == "latex" else "plain"))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    text = _lazy.format_decimal(_lazy.eval_closed_form(args.form, args.ctx), args.digits)
    if args.format == "json":
        _print_json({"argument": str(args.rational), "digits": args.digits, "value": text})
    else:
        print(text)
    return 0


def _cmd_table_check(args: argparse.Namespace) -> int:
    path = args.corpus if args.corpus is not None else _lazy.bundled_corpus_path()
    try:
        entries = _lazy.load_corpus(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _print_reports(args.format, _lazy.verify_tables(entries, args.ctx))


def _cmd_compare(args: argparse.Namespace) -> int:
    return _print_reports(args.format, _lazy.compare_formulas(args.qmax, args.ctx))


def _cmd_errata(args: argparse.Namespace) -> int:
    return _print_reports(
        args.format, _lazy.errata_gr(args.qmax, args.ctx), _lazy.errata_jensen(args.ctx)
    )


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
    p_eval = sub.add_parser("eval", help="evaluate psi(p/q) to D significant digits")
    for each in (p_exact, p_eval):
        each.add_argument("rational", help="the argument p/q, e.g. 1/2 or -7/3")
    p_exact.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p_exact.set_defaults(run=_cmd_exact)

    p_table = sub.add_parser("table-check", help="verify the corpus of published values")
    p_table.add_argument("--corpus", default=None, help="corpus file (default: bundled)")
    p_compare = sub.add_parser(
        "compare", help="cross-check the Gauss, Nielsen and Murty-Saradha forms"
    )
    p_errata = sub.add_parser(
        "errata", help="measure published-formula discrepancies (GR 8.363(6), Jensen)"
    )
    for each in (p_compare, p_errata):
        each.add_argument("--qmax", type=qmax, default=DEFAULT_QMAX)
    # each command's own argument stands before these in its usage line
    for each, handler in (
        (p_eval, _cmd_eval),
        (p_table, _cmd_table_check),
        (p_compare, _cmd_compare),
        (p_errata, _cmd_errata),
    ):
        each.add_argument("--digits", type=digits, default=DEFAULT_DIGITS)
        each.add_argument("--format", choices=("text", "json"), default="text")
        each.set_defaults(run=handler)

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
    if "rational" in args:  # exact and eval: the text becomes a Fraction and its form
        try:
            args.rational = parse_rational(args.rational)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            args.form = psi_closed(args.rational)
        except PoleError as exc:
            print(exc, file=sys.stderr)
            return 3
    if "digits" in args:  # every command but exact, which loads no numerics
        args.ctx = _lazy.EvalContext(args.digits)
    return args.run(args)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
