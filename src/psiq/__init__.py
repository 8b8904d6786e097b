"""Exact closed forms and arbitrary-precision values of the digamma function
at rational arguments.

The package computes psi(p/q) as an exact symbolic combination of the Euler
constant, prime logarithms, pi*cot(pi*x) and ln sin(pi*x) terms with exact
cosine-combination coefficients, evaluates such forms to any requested
decimal precision, and cross-verifies them against independent numeric
oracles and a bundled corpus of published values.

The numerics and verification names are loaded the first time they are
used, so a process that only builds and prints exact forms never imports
mpmath.
"""

import importlib

from .closedform import (
    GAMMA,
    UNIT,
    BasisTerm,
    ClosedForm,
    CosineCombination,
    log_prime,
    log_sin,
    pi_cot,
    render,
)
from .formulas import (
    gauss_1813,
    gr_variant,
    murty_saradha,
    nielsen,
    psi_closed,
    reflect,
)
from .rationals import (
    PoleError,
    ShiftDecomposition,
    is_pole,
    parse_rational,
    shift_decompose,
)

__version__ = "0.1.0"

# name -> the submodule that defines it, imported on first use (PEP 562)
_LAZY = {
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

__all__ = [
    "BasisTerm",
    "ClosedForm",
    "ComparisonReport",
    "CosineCombination",
    "EvalContext",
    "GAMMA",
    "PoleError",
    "ShiftDecomposition",
    "TableEntry",
    "UNIT",
    "bernoulli_even",
    "bundled_corpus_path",
    "bundled_errata_path",
    "compare_formulas",
    "comparison_tolerance",
    "const_gamma",
    "const_pi",
    "errata_gr",
    "errata_jensen",
    "eval_closed_form",
    "format_decimal",
    "gauss_1813",
    "gr_variant",
    "is_pole",
    "load_corpus",
    "log_prime",
    "log_sin",
    "murty_saradha",
    "nielsen",
    "oracle_psi_asymptotic",
    "oracle_psi_series",
    "parse_rational",
    "pi_cot",
    "psi_closed",
    "reflect",
    "render",
    "shift_decompose",
    "verify_tables",
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    # never replaces a binding made while the module was imported
    return globals().setdefault(name, value)


def __dir__() -> list:
    return sorted({*globals(), *_LAZY})
