"""Golden CLI outputs: every stdout byte must match the committed file.

``golden_cli.json`` holds the exit code and stdout of ``psiq eval`` (30 and
479 digits) and ``psiq exact`` (text, JSON and LaTeX) over a fixed argument
list, then of the sweeps ``compare`` and ``errata`` (q <= 12) and
``table-check`` at 30 digits in text and JSON, and last of ``-h`` for
``psiq`` and each subcommand, wrapped to 80 columns.  A change that must
leave CLI output untouched (a faster algorithm, a refactor, a deletion) is
checked against it.  Regenerate the file only when an output change is intended, by
running this module as a script::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from psiq.cli import run

from conftest import fresh_python

GOLDEN_PATH = Path(__file__).with_name("golden_cli.json")

# 463/11 is 23/11 + 40 (a shifted argument with a small denominator);
# 30001/3 has a shift correction whose numerator exceeds 4300 digits;
# -5/4 shifts a base of denominator 4, whose theorem form has no half sum to
# defer, so it is the one argument built eagerly and then shifted.
ARGUMENTS = [
    "1/2", "-7/3", "12/7", "463/11", "1", "30001/3",
    "1/3", "-1/2", "5", "3/8", "97/60", "1/97", "-5/4",
]


def golden_argvs() -> list[list[str]]:
    argvs: list[list[str]] = []
    for arg in ARGUMENTS:
        argvs.append(["eval", arg, "--digits", "30"])
        argvs.append(["eval", arg, "--digits", "30", "--format", "json"])
        argvs.append(["eval", arg, "--digits", "479"])
        for fmt in ("text", "json", "latex"):
            argvs.append(["exact", arg, "--format", fmt])
    for sweep in (["compare", "--qmax", "12"], ["errata", "--qmax", "12"], ["table-check"]):
        for fmt in ("text", "json"):
            argvs.append([*sweep, "--digits", "30", "--format", fmt])
    argvs.append(["-h"])
    for command in ("exact", "eval", "table-check", "compare", "errata"):
        argvs.append([command, "-h"])
    return argvs


def _load_cases() -> list[dict]:
    if not GOLDEN_PATH.exists():  # regenerating; the coverage test fails otherwise
        return []
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["cases"]


def test_golden_file_covers_argument_list():
    assert [case["argv"] for case in _load_cases()] == golden_argvs()


@pytest.mark.parametrize(
    "case", _load_cases(), ids=lambda case: " ".join(case["argv"])
)
def test_cli_output_is_byte_identical(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps -h text to it
    code = run(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode("utf-8") == case["stdout"].encode("utf-8")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int->str digit limit"
)
def test_run_restores_int_str_limit(capsys):
    argv = ["exact", "30001/3", "--format", "text"]
    [golden] = [case for case in _load_cases() if case["argv"] == argv]
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run(argv[:2]) == golden["exit"]
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(previous)
    assert capsys.readouterr().out == golden["stdout"]


# each subcommand in each format, in a fresh process: the in-process tests
# above run after other tests have loaded every module, so they never load a
# name psiq.cli imports on first use
FRESH_ARGVS = [
    argv
    for argv in golden_argvs()
    if argv[0] not in ("exact", "eval") or (argv[1] == "-7/3" and "479" not in argv)
]


@pytest.mark.parametrize("argv", FRESH_ARGVS, ids=" ".join)
def test_fresh_process_output_is_byte_identical(argv):
    [golden] = [case for case in _load_cases() if case["argv"] == argv]
    proc = fresh_python("-m", "psiq.cli", *argv)
    assert proc.returncode == golden["exit"]
    assert proc.stdout == golden["stdout"].encode("utf-8")


def test_fresh_process_exit_codes():
    usage = fresh_python("-m", "psiq.cli", "eval", "1/2", "--digits", "14")
    assert usage.returncode == 2
    assert b"digits must be at least 15" in usage.stderr
    pole = fresh_python("-m", "psiq.cli", "exact", "0")
    assert pole.returncode == 3
    assert pole.stdout == b""


def _regenerate() -> None:
    """Run each argv in a fresh ``python -m psiq.cli`` and record its stdout."""
    cases = []
    for argv in golden_argvs():
        proc = fresh_python("-m", "psiq.cli", *argv)
        cases.append(
            {"argv": argv, "exit": proc.returncode, "stdout": proc.stdout.decode("utf-8")}
        )
    GOLDEN_PATH.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
