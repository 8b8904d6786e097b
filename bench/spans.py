"""Spans around calls into psiq's layers, recorded from outside the package.

Each binding listed in LAYERS is replaced, in the namespace of the module
that looks it up, by a wrapper that records one span per call:
``[id, parent, layer, start, end, counts]``.  Times are ``perf_counter``
readings, which on Linux come from the system-wide monotonic clock, so spans
from a child process line up with the parent's own clock readings.
:meth:`Recorder.restore` puts the original bindings back.
"""

from __future__ import annotations

import functools
import importlib
import time


def _form_size(form) -> dict:
    return {
        "terms": len(form.coefficients),
        "cosines": sum(len(coeff.cosines) for _, coeff in form.coefficients),
    }


def _cases(report) -> dict:
    return {"cases": len(report.cases)}


# layer -> (bindings that route calls into it, count taken from the result)
LAYERS = {
    "rationals.parse": (
        [("psiq.cli", "parse_rational"), ("psiq.verification", "parse_rational")],
        None,
    ),
    "rationals.shift": (
        [("psiq.formulas", "shift_decompose")],
        lambda sd: {"steps": sd.step_count},
    ),
    "formulas.psi_closed": (
        [("psiq", "psi_closed"), ("psiq.cli", "psi_closed"), ("psiq.formulas", "psi_closed")],
        _form_size,
    ),
    "formulas.murty_saradha": ([("psiq.formulas", "murty_saradha")], _form_size),
    "formulas.gauss_1813": ([("psiq.formulas", "gauss_1813")], _form_size),
    "formulas.nielsen": ([("psiq.formulas", "nielsen")], _form_size),
    "formulas.gr_variant": ([("psiq.formulas", "gr_variant")], _form_size),
    "closedform.render": ([("psiq.cli", "render")], lambda text: {"chars": len(text)}),
    "numerics.bernoulli": ([("psiq.numerics", "bernoulli_even")], None),
    "numerics.const_gamma": (
        [("psiq.numerics", "const_gamma"), ("psiq.expressions", "const_gamma")],
        None,
    ),
    "numerics.coeff_eval": ([("psiq.numerics", "eval_cosine_combination")], None),
    "numerics.eval": (
        [
            ("psiq", "eval_closed_form"),
            ("psiq.cli", "eval_closed_form"),
            ("psiq.verification", "eval_closed_form"),
        ],
        None,
    ),
    "numerics.format": ([("psiq", "format_decimal"), ("psiq.cli", "format_decimal")], None),
    "expressions.parse": ([("psiq.verification", "parse_const_expr")], None),
    "expressions.eval": ([("psiq.verification", "eval_const_expr")], None),
    "verification.compare": ([("psiq.cli", "compare_formulas")], _cases),
    "verification.errata": ([("psiq.cli", "errata_gr"), ("psiq.cli", "errata_jensen")], _cases),
    "verification.tables": ([("psiq.cli", "load_corpus"), ("psiq.cli", "verify_tables")], None),
}

# constructions whose form sizes count: only the outermost one of a call chain
CONSTRUCTIONS = frozenset(name for name in LAYERS if name.startswith("formulas."))


class Recorder:
    """Installs the wrappers and keeps the spans of one process in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, layer, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(result)
            return result

        return traced

    def install(self) -> None:
        for layer, (bindings, count) in LAYERS.items():
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original, count))

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def take(self) -> list[list]:
        """The spans recorded since the last take, with ids from 0."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def summarize(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per-layer inclusive time, self time and counts for the spans of one
    operation.  A span nested under a span of the same layer adds no
    inclusive time; self time is a span's duration minus its children's."""
    by_id = {span[0]: span for span in spans}
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    counts: dict[str, int] = {}
    for span_id, parent, layer, start, end, found in spans:
        duration = end - start
        own[layer] = own.get(layer, 0.0) + duration
        if parent in by_id:
            parent_layer = by_id[parent][2]
            own[parent_layer] = own.get(parent_layer, 0.0) - duration
        ancestors = set()
        p = parent
        while p in by_id:
            ancestors.add(by_id[p][2])
            p = by_id[p][1]
        if layer not in ancestors:
            inclusive[layer] = inclusive.get(layer, 0.0) + duration
        if found and not (layer in CONSTRUCTIONS and ancestors & CONSTRUCTIONS):
            for key, value in found.items():
                counts[key] = counts.get(key, 0) + value
    return inclusive, own, counts
