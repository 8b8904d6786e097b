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


class _Record:
    """An immutable value record: its fields are its ``__slots__``, in order,
    but for private ones (a leading ``_``).

    Records compare equal only to records of the same class with equal
    fields, hash as the tuple of their fields, print as
    ``Name(field=value, ...)``, refuse assignment and deletion, and pickle
    and copy by calling the class with their fields.  A subclass names
    defaults for its trailing fields in ``_defaults`` and may check its
    fields in ``_check()``; one that is built in bulk defines its own
    ``__init__`` and sets each slot through the class's slot descriptor,
    ``Cls.field.__set__(self, value)``, the cheapest way past ``__setattr__``.
    A private slot may hold what a field is filled in from on its first read.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        cls._field_names = tuple(s for s in cls.__slots__ if not s.startswith("_"))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._field_names
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields or field in values:
                raise TypeError(f"{name}() got an unexpected or repeated argument {field!r}")
            values[field] = value
        for field in fields:
            if field in values:
                object.__setattr__(self, field, values[field])
            elif field in self._defaults:
                object.__setattr__(self, field, self._defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        self._check()

    def _check(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple(getattr(self, field) for field in self._field_names)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._field_names)
        return f"{type(self).__qualname__}({pairs})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), self._fields()


def __getattr__(name: str):
    return _load(name, globals(), __name__)


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})
