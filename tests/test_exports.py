"""Every public name psiq exports, and every binding the benchmark's span
recorder rebinds, resolves; a removed name that the benchmark still looks up
would otherwise surface only as failed traced operations."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import psiq

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
