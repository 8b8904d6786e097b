"""Arbitrary-precision evaluation and independent numeric digamma oracles.

Values are mpmath floats carried at ``digits + guard`` working decimal digits
(guard defaults to 15); results reported at D digits are accurate to well
within 10 units in the last digit for exact inputs.  Comparisons throughout
the package use the tolerance 10^-(D-10).

Two independent digamma oracles are provided:

* :func:`oracle_psi_series` - direct partial sum of
  psi(z) = -gamma - 1/z + sum_{n>=1} z/(n(z+n)) with a rigorous tail bound;
* :func:`oracle_psi_asymptotic` - exact upward recurrence to x >= max(20, D)
  followed by the de Moivre expansion
  ln x - 1/(2x) - sum_k B_{2k}/(2k x^{2k}) with optimal truncation.

The Euler constant is not hard-coded: it is defined as
-oracle_psi_asymptotic(1), keeping a single source of truth.  Bernoulli
numbers are exact, from integer tangent numbers (Brent & Harvey, 2011).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import mpmath

from .closedform import ClosedForm, CosineCombination
from .rationals import ArgumentClass, PoleError, classify, shift_decompose

__all__ = [
    "EvalContext",
    "GUARD_DIGITS",
    "bernoulli_even",
    "comparison_tolerance",
    "const_gamma",
    "const_pi",
    "eval_closed_form",
    "eval_cosine_combination",
    "format_decimal",
    "oracle_psi_asymptotic",
    "oracle_psi_series",
]

GUARD_DIGITS = 15

BigReal = Any  # mpmath.mpf bound to a per-precision context

_mp_contexts = threading.local()  # .by_dps: this thread's {dps: context}
_VALUE_CACHE_SIZE = 16384
_bernoulli: list[Fraction] = []  # [B_2, B_4, ...]
_bernoulli_lock = threading.Lock()


@functools.lru_cache(maxsize=_VALUE_CACHE_SIZE)
def _constant(key: tuple) -> BigReal:
    """The constant a key names: (workdps, "pi"), (digits, guard, "gamma"),
    (workdps, "cos2pi", angle) for cos(2*pi*angle), or (workdps, kind, arg)
    for a picot, logprime or logsin basis term.

    A miss computes in the asking thread's context, so a hit may return
    another thread's value (see :func:`_own`).  functools' LRU is bounded
    and thread-safe and hashes a key once per hit; an OrderedDict would hash
    it again to move it to the end, and a Fraction's hash is Python code.
    """
    if key[-1] == "gamma":
        return -oracle_psi_asymptotic(Fraction(1), EvalContext(key[0], key[1]))
    m = _mp_for(key[0])
    kind = key[1]
    if kind == "pi":
        return +m.pi
    if kind == "logprime":
        return m.log(key[2])
    x = m.mpf(key[2].numerator) / key[2].denominator
    if kind == "cos2pi":
        return m.cos(2 * m.pi * x)
    if kind == "picot":
        return m.pi * m.cot(m.pi * x)
    if kind == "logsin":
        return m.log(m.sin(m.pi * x))
    raise ValueError(f"unknown basis term kind {kind!r}")


def _own(v: BigReal, ctx: "EvalContext") -> BigReal:
    """``v`` in this thread's context at ``ctx``'s precision: the left operand's
    context sets the precision of an mpmath operation."""
    m = ctx.mp
    return v if v.context is m else m.make_mpf(v._mpf_)


def _mp_for(dps: int):
    """This thread's mpmath context at ``dps`` digits.  Threads do not share
    contexts because some mpmath functions (cot among them) raise the
    context's precision while they run and restore it afterwards."""
    try:
        return _mp_contexts.by_dps[dps]
    except AttributeError:
        _mp_contexts.by_dps = {}
    except KeyError:
        pass
    ctx = _mp_contexts.by_dps[dps] = mpmath.mp.clone()
    ctx.dps = dps
    return ctx


@dataclass(frozen=True)
class EvalContext:
    """Evaluation precision: D reported digits plus fixed guard digits."""

    digits: int = 50
    guard: int = GUARD_DIGITS

    def __post_init__(self) -> None:
        if self.digits < 15:
            raise ValueError("EvalContext requires digits >= 15")
        if self.guard < 0:
            raise ValueError("guard digits must be non-negative")

    @property
    def workdps(self) -> int:
        return self.digits + self.guard

    @property
    def mp(self):
        """This thread's mpmath context at working precision."""
        return _mp_for(self.workdps)

    def from_fraction(self, value: Fraction) -> BigReal:
        return self.mp.mpf(value.numerator) / value.denominator


def comparison_tolerance(ctx: EvalContext) -> BigReal:
    """The package-wide comparison tolerance 10^-(D-10)."""
    return ctx.mp.mpf(10) ** (-(ctx.digits - 10))


def const_pi(ctx: EvalContext) -> BigReal:
    """pi at the context's working precision."""
    return _own(_constant((ctx.workdps, "pi")), ctx)


def const_gamma(ctx: EvalContext) -> BigReal:
    """The Euler constant, defined as -psi(1) via the asymptotic oracle."""
    return _own(_constant((ctx.digits, ctx.guard, "gamma")), ctx)


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact)
# ---------------------------------------------------------------------------


def bernoulli_even(k: int) -> Fraction:
    """Exact B_{2k} = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) (k >= 1) from tangent numbers
    built in place by O(n^2) integer steps; a request past the table rebuilds it to
    max(k, twice its size), which keeps ascending requests O(k^2) in total."""
    if k < 1:
        raise ValueError("bernoulli_even requires k >= 1")
    with _bernoulli_lock:
        if len(_bernoulli) < k:
            n = max(k, 2 * len(_bernoulli))
            t = [0] + [math.factorial(i - 1) for i in range(1, n + 1)]
            for i in range(2, n + 1):
                for j in range(i, n + 1):
                    t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
            _bernoulli.extend(
                Fraction((-1) ** (i - 1) * 2 * i * t[i], 4**i * (4**i - 1))
                for i in range(len(_bernoulli) + 1, n + 1)
            )
        return _bernoulli[k - 1]


# ---------------------------------------------------------------------------
# Closed-form evaluation
# ---------------------------------------------------------------------------


def _basis_value(term, ctx: EvalContext) -> BigReal:
    if term.kind == "unit":
        return ctx.mp.mpf(1)
    if term.kind == "gamma":
        return const_gamma(ctx)
    return _constant((ctx.workdps, term.kind, term.arg))


def eval_cosine_combination(c: CosineCombination, ctx: EvalContext) -> BigReal:
    total = ctx.from_fraction(c.rational)
    for angle, coeff in c.cosines:
        total += ctx.from_fraction(coeff) * _constant((ctx.workdps, "cos2pi", angle))
    return total


def eval_closed_form(c: ClosedForm, ctx: EvalContext) -> BigReal:
    """Sum of coefficient * basis-constant over all stored terms.

    With exact inputs the relative error is below 10^-(D-5); the default
    guard of 15 digits absorbs rounding across the O(q) summands produced
    by the rational-argument formulas.
    """
    total = ctx.mp.mpf(0)
    for term, coeff in c.coefficients:
        total += eval_cosine_combination(coeff, ctx) * _basis_value(term, ctx)
    return total


# ---------------------------------------------------------------------------
# Numeric digamma oracles
# ---------------------------------------------------------------------------


def oracle_psi_series(
    r: Fraction, terms: int, ctx: EvalContext
) -> tuple[BigReal, BigReal]:
    """Partial sum of the defining series with a rigorous tail bound.

    Returns (value, tail_bound).  Positive arguments are summed directly
    (tail < r/N); negative non-integer arguments are first shifted into
    (0, 1] by the exact recurrence and the bound applies to the shifted base.
    The inner sum is evaluated in exact scaled-integer arithmetic
    (floor error < N/10^(workdigits+10), far below the tail bound).
    """
    if classify(r) is ArgumentClass.POLE:
        raise PoleError("digamma pole at non-positive integer")
    if terms < 10 * math.ceil(abs(r)):
        raise ValueError("series oracle requires at least 10*ceil(|r|) terms")
    m = ctx.mp
    correction = Fraction(0)
    z = r
    if r < 0:
        sd = shift_decompose(r)
        z, correction = sd.base, sd.correction
    p, q = z.numerator, z.denominator
    # sum_{n=1}^{N} z/(n(n+z)) = sum_{n=1}^{N} p/(n(nq+p)) for z = p/q > 0
    shift = 10 ** (ctx.workdps + 10)
    ps = p * shift
    total = 0
    for n in range(1, terms + 1):
        total += ps // (n * (n * q + p))
    partial = m.mpf(total) / shift
    value = -const_gamma(ctx) - m.mpf(q) / p + partial + ctx.from_fraction(correction)
    tail_bound = ctx.from_fraction(z) / terms
    return value, tail_bound


def oracle_psi_asymptotic(r: Fraction, ctx: EvalContext) -> BigReal:
    """Digamma via exact upward recurrence plus the de Moivre expansion.

    The argument is shifted by exact rational steps to x >= max(20, D); the
    expansion ln x - 1/(2x) - sum_k B_{2k}/(2k x^{2k}) is truncated when a
    term drops below 10^-(D+10).  The series is divergent, so term growth
    stops the summation as well (never reached for x >= max(20, D)).
    """
    if classify(r) is ArgumentClass.POLE:
        raise PoleError("digamma pole at non-positive integer")
    m = ctx.mp
    x_min = max(20, ctx.digits)
    steps = max(0, math.ceil(x_min - r))
    correction = sum((Fraction(1, 1) / (r + k) for k in range(steps)), Fraction(0))
    x_exact = r + steps
    x = ctx.from_fraction(x_exact)
    value = m.log(x) - 1 / (2 * x)
    x2 = x * x
    power = x2
    eps = m.mpf(10) ** (-(ctx.digits + 10))
    previous = m.inf
    k = 1
    while True:
        term = ctx.from_fraction(bernoulli_even(k)) / (2 * k * power)
        size = abs(term)
        if size < eps or size >= previous:
            break
        value -= term
        previous = size
        power *= x2
        k += 1
    return value - ctx.from_fraction(correction)


# ---------------------------------------------------------------------------
# Decimal text output
# ---------------------------------------------------------------------------


def format_decimal(x: BigReal, digits: int) -> str:
    """Exactly ``digits`` significant decimal digits (e-notation for extreme
    magnitudes); correctly rounded from the working-precision value."""
    if x == 0:
        return "0"
    return mpmath.nstr(x, digits, strip_zeros=False)
