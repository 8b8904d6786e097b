"""Exact closed forms and arbitrary-precision values of the digamma function
at rational arguments.

The package computes psi(p/q) as an exact symbolic combination of the Euler
constant, prime logarithms, pi*cot(pi*x) and ln sin(pi*x) terms with exact
cosine-combination coefficients, evaluates such forms to any requested
decimal precision, and cross-verifies them against independent numeric
oracles and a bundled corpus of published values.

Every name is loaded from its defining submodule the first time it is used,
so ``import psiq`` imports no submodule, and a process that only builds and
prints exact forms never imports mpmath.
"""

import importlib

__version__ = "0.1.0"

# name -> the submodule that defines it, imported on first use (PEP 562);
# psiq.cli loads its own lazy names through this table too
_EXPORTS = {
    **dict.fromkeys(
        (
            "GAMMA",
            "UNIT",
            "BasisTerm",
            "ClosedForm",
            "CosineCombination",
            "log_prime",
            "log_sin",
            "pi_cot",
            "render",
        ),
        "closedform",
    ),
    **dict.fromkeys(
        (
            "gauss_1813",
            "gr_variant",
            "murty_saradha",
            "nielsen",
            "psi_closed",
            "reflect",
        ),
        "formulas",
    ),
    **dict.fromkeys(
        (
            "PoleError",
            "ShiftDecomposition",
            "is_pole",
            "parse_rational",
            "shift_decompose",
        ),
        "rationals",
    ),
    **dict.fromkeys(
        (
            "EvalContext",
            "bernoulli_even",
            "comparison_tolerance",
            "const_gamma",
            "const_pi",
            "eval_closed_form",
            "format_decimal",
            "oracle_psi_asymptotic",
            "oracle_psi_series",
        ),
        "numerics",
    ),
    **dict.fromkeys(
        (
            "ComparisonReport",
            "TableEntry",
            "bundled_corpus_path",
            "bundled_errata_path",
            "compare_formulas",
            "errata_gr",
            "errata_jensen",
            "load_corpus",
            "verify_tables",
        ),
        "verification",
    ),
}

__all__ = sorted(_EXPORTS)


def _load(name: str, namespace: dict, module_name: str):
    """Bind ``name`` in ``namespace``, the globals of module ``module_name``,
    to the object its defining submodule exports, importing that submodule."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    # never replaces a binding made earlier, such as a wrapper around it
    return namespace.setdefault(name, value)


def __getattr__(name: str):
    return _load(name, globals(), __name__)


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})
