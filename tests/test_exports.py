"""Every public name psiq exports, and every binding the benchmark's span
recorder rebinds, resolves; a removed name that the benchmark still looks up
would otherwise surface only as failed traced operations.  ``import psiq``
imports no submodule, and psiq and psiq.cli load each name from its defining
submodule on first use: a fresh interpreter checks which modules each
subcommand loads, and that the recorder's wrappers around those names still
see every call."""

import ast
import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import pytest

import psiq
import psiq.cli
from psiq import closedform, numerics

from conftest import fresh_python

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_bindings_resolve():
    bindings = [pair for names, _ in load_spans().LAYERS.values() for pair in names]
    assert bindings
    missing = [(m, a) for m, a in bindings if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def test_package_exports_exist():
    missing = [name for name in psiq.__all__ if not hasattr(psiq, name)]
    assert missing == []


def test_module_exports_exist():
    modules = [
        importlib.import_module(f"psiq.{info.name}")
        for info in pkgutil.iter_modules(psiq.__path__)
    ]
    assert {m.__name__ for m in modules} >= {"psiq.closedform", "psiq.numerics"}
    missing = [
        (m.__name__, name)
        for m in modules
        for name in m.__all__
        if not hasattr(m, name)
    ]
    assert missing == []


def test_cli_calls_through_bench_bindings(capsys):
    """The CLI still routes exact, eval, compare and errata through every
    binding the benchmark rebinds for their layers, so traced runs see each
    layer."""
    from psiq.cli import run

    recorder = load_spans().Recorder()
    recorder.install()
    try:
        assert run(["exact", "-7/3"]) == 0
        assert run(["eval", "1/2", "--digits", "30"]) == 0
        assert run(["compare", "--qmax", "4", "--digits", "15"]) == 0
        assert run(["errata", "--qmax", "4", "--digits", "15"]) == 0
    finally:
        recorder.restore()
    assert capsys.readouterr().out.splitlines()[1] == "-1.96351002602142347944097633300"
    layers = {span[2] for span in recorder.take()}
    assert layers >= {
        "rationals.parse",
        "rationals.shift",
        "formulas.psi_closed",
        "formulas.murty_saradha",
        "formulas.gauss_1813",
        "formulas.nielsen",
        "formulas.gr_variant",
        "closedform.render",
        "numerics.eval",
        "numerics.format",
        "verification.compare",
        "verification.errata",
    }


# the psiq submodules that import psiq alone loads; whether psiq.__all__ is
# listed by dir() before any lazy name is loaded; then, after each command,
# the modules that are loaded, and which of dataclasses, inspect and json
# were loaded after the first line (the interpreter's site may load one of
# them before it, and the script imports json only at its end); last, whether
# loading the verification names kept a binding set on one of them beforehand
COLD_START = """
import sys; start = set(sys.modules)
import contextlib, io
import psiq

found = {"package": sorted(m for m in sys.modules if m.startswith("psiq."))}
from psiq.cli import run

heavy = ("mpmath", "psiq.numerics", "psiq.expressions", "psiq.verification")
costly = ("dataclasses", "inspect", "json")
found["dir"] = set(psiq.__all__) <= set(dir(psiq))
found["import"] = [m for m in heavy if m in sys.modules]
psiq.errata_jensen = psiq.cli.errata_jensen = kept = object()
for argv in (
    ["exact", "-7/3"],
    ["eval", "1/2", "--digits", "30"],
    ["compare", "--qmax", "4", "--digits", "15"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == 0
    found[argv[0]] = [m for m in heavy if m in sys.modules]
    found[argv[0] + " added"] = [m for m in costly if m in set(sys.modules) - start]
psiq.compare_formulas
found["kept"] = psiq.errata_jensen is kept and psiq.cli.errata_jensen is kept
import json
print(json.dumps(found))
"""


def test_subcommands_load_only_what_they_use():
    proc = fresh_python("-c", COLD_START)
    assert proc.returncode == 0, proc.stderr.decode()
    found = json.loads(proc.stdout)
    assert found["package"] == []
    assert found["dir"]
    assert found["import"] == []
    assert found["exact"] == []
    assert found["eval"] == ["mpmath", "psiq.numerics"]
    assert "psiq.verification" in found["compare"]
    # exact and eval in text format load no json, and no command loads
    # dataclasses or inspect
    assert found["exact added"] == []
    assert found["eval added"] == []
    assert not {"dataclasses", "inspect"} & set(found["compare added"])
    assert found["kept"]


# the recorder installed right after import psiq.cli, as bench/worker.py
# does, then restored and installed again; the layers each command recorded
COLD_SPANS = """
import contextlib, importlib.util, io, json, sys
import psiq.cli

spec = importlib.util.spec_from_file_location("bench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
recorder = spans.Recorder()
found = []
for _ in range(2):
    recorder.install()
    for argv in (
        ["eval", "1/2", "--digits", "30"],
        ["compare", "--qmax", "4", "--digits", "15"],
        ["errata", "--qmax", "4", "--digits", "15"],
        ["table-check", "--digits", "30"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            code = psiq.cli.run(argv)
        found.append([argv[0], code, [span[2] for span in recorder.take()]])
    recorder.restore()
print(json.dumps(found))
"""


def test_bench_spans_record_lazy_names_on_cold_start():
    proc = fresh_python("-c", COLD_SPANS, str(SPANS_PATH))
    assert proc.returncode == 0, proc.stderr.decode()
    found = json.loads(proc.stdout)
    expected = {
        "eval": "numerics.eval",
        "compare": "verification.compare",
        "errata": "verification.errata",
        "table-check": "verification.tables",
    }
    assert [command for command, _, _ in found] == [*expected] * 2
    for command, code, layers in found:
        assert code == 0
        assert expected[command] in layers
    # one wrapper around each binding: eval records its evaluation once
    evals = [layers.count("numerics.eval") for command, _, layers in found if command == "eval"]
    assert evals == [1, 1]


def test_lazy_names_are_the_defining_modules_objects():
    """Each name psiq exports, and each ``_lazy.<name>`` the CLI handlers
    look up, is the defining submodule's own object.  Only the names the CLI
    uses are resolved on psiq.cli, so ComparisonReport stays out of it."""
    tree = ast.parse(Path(psiq.cli.__file__).read_text(encoding="utf-8"))
    cli_names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "_lazy"
    }
    assert {"EvalContext", "eval_closed_form", "verify_tables"} <= cli_names
    for module, names in ((psiq, psiq._EXPORTS), (psiq.cli, cli_names)):
        for name in names:
            home = importlib.import_module(f"psiq.{psiq._EXPORTS[name]}")
            assert getattr(module, name) is getattr(home, name)
    assert numerics.MIN_DIGITS is closedform.MIN_DIGITS


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from psiq import *", namespace)
    assert set(psiq.__all__) <= namespace.keys()


@pytest.mark.parametrize("module", [psiq, psiq.cli], ids=lambda m: m.__name__)
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match=repr(module.__name__)):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


def test_cli_imports_report_type_only_for_type_checkers():
    tree = ast.parse(Path(psiq.cli.__file__).read_text(encoding="utf-8"))

    def imported(node) -> list[str]:
        return [a.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom) for a in n.names]

    guarded = [
        name
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
        for name in imported(node)
    ]
    assert imported(tree).count("ComparisonReport") == 1
    assert "ComparisonReport" in guarded
    assert "ComparisonReport" not in vars(psiq.cli)
