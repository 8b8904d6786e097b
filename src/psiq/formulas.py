"""Closed-form constructors for digamma values at rational arguments.

The base-case engine is the Murty-Saradha form of the classical rational-
argument theorem; the Gauss (1813) and Nielsen forms are built independently
so the three can be cross-checked, and the shortened-sum variant printed in
Gradshteyn-Ryzhik 8.363(6) is kept verbatim for the errata analyzer.  The
top-level dispatcher :func:`psi_closed` covers every non-pole rational by
combining the exact unit-shift recurrence with the base-case engine.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .closedform import (
    GAMMA,
    UNIT,
    BasisTerm,
    ClosedForm,
    CosineCombination,
    combine,
    factor_log_integer,
    log_prime,
    log_sin,
    pi_cot,
)
from .rationals import PoleError, classify, shift_decompose, ArgumentClass

__all__ = [
    "gauss_1813",
    "gr_variant",
    "murty_saradha",
    "nielsen",
    "psi_closed",
    "psi_complement",
    "psi_negative_unit",
    "reflect",
]

Acc = dict[BasisTerm, CosineCombination]


def _check_pq(p: int, q: int) -> None:
    if not (isinstance(p, int) and isinstance(q, int)):
        raise ValueError("p and q must be integers")
    if q < 2 or not 1 <= p < q:
        raise ValueError(f"require 1 <= p < q with q >= 2, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"require gcd(p, q) = 1, got p={p}, q={q}")


def _add(acc: Acc, term: BasisTerm, coeff: CosineCombination) -> None:
    acc[term] = acc.get(term, CosineCombination()) + coeff


def _add_log_integer(acc: Acc, n: int, multiple: Fraction) -> None:
    for term, exponent in factor_log_integer(n).items():
        _add(acc, term, CosineCombination.from_rational(exponent * multiple))


def murty_saradha(p: int, q: int) -> ClosedForm:
    """-gamma - ln(2q) - (pi/2)cot(pi p/q)
    + 2 sum_{j=1}^{floor(q/2)} cos(2 pi p j/q) ln sin(pi j/q).

    For even q the j = q/2 summand multiplies ln sin(pi/2) = 0 and vanishes
    from the canonical form.
    """
    _check_pq(p, q)
    acc: Acc = {GAMMA: CosineCombination.from_rational(-1)}
    _add_log_integer(acc, 2 * q, Fraction(-1))
    _add(acc, pi_cot(Fraction(p, q)), CosineCombination.from_rational(Fraction(-1, 2)))
    for j in range(1, q // 2 + 1):
        coeff = CosineCombination.from_cos(Fraction(p * j, q), 2)
        _add(acc, log_sin(Fraction(j, q)), coeff)
    return ClosedForm.build(acc)


def gauss_1813(p: int, q: int) -> ClosedForm:
    """-gamma - ln q - (pi/2)cot(pi p/q)
    + sum'_{j=1}^{floor(q/2)} cos(2 pi j p/q) ln(2 - 2 cos(2 pi j/q)),

    where the primed sum halves the j = q/2 term for even q.  Each
    ln(2 - 2 cos(2 pi j/q)) is rewritten exactly as 2 ln 2 + 2 ln sin(pi j/q)
    (since 2 - 2 cos t = 4 sin^2(t/2)) so all three formulas share one basis;
    unlike the doubled-sum form, the halved j = q/2 term contributes real
    2 ln 2 mass here.
    """
    _check_pq(p, q)
    acc: Acc = {GAMMA: CosineCombination.from_rational(-1)}
    _add_log_integer(acc, q, Fraction(-1))
    _add(acc, pi_cot(Fraction(p, q)), CosineCombination.from_rational(Fraction(-1, 2)))
    for j in range(1, q // 2 + 1):
        coeff = CosineCombination.from_cos(Fraction(p * j, q), 1)
        if q % 2 == 0 and j == q // 2:
            coeff = coeff * Fraction(1, 2)
        doubled = coeff * 2
        _add(acc, log_prime(2), doubled)
        _add(acc, log_sin(Fraction(j, q)), doubled)
    return ClosedForm.build(acc)


def nielsen(p: int, q: int) -> ClosedForm:
    """-gamma - ln q - (pi/2)cot(pi p/q)
    + sum_{j=1}^{q-1} cos(2 pi p j/q) [ln 2 + ln sin(pi j/q)]."""
    _check_pq(p, q)
    acc: Acc = {GAMMA: CosineCombination.from_rational(-1)}
    _add_log_integer(acc, q, Fraction(-1))
    _add(acc, pi_cot(Fraction(p, q)), CosineCombination.from_rational(Fraction(-1, 2)))
    for j in range(1, q):
        coeff = CosineCombination.from_cos(Fraction(p * j, q), 1)
        _add(acc, log_prime(2), coeff)
        _add(acc, log_sin(Fraction(j, q)), coeff)
    return ClosedForm.build(acc)


def gr_variant(p: int, q: int) -> ClosedForm:
    """The Murty-Saradha form with upper limit floor((q+1)/2) - 1, exactly as
    printed in Gradshteyn-Ryzhik 8.363(6); kept uncorrected so the errata
    analyzer can measure any discrepancy."""
    _check_pq(p, q)
    acc: Acc = {GAMMA: CosineCombination.from_rational(-1)}
    _add_log_integer(acc, 2 * q, Fraction(-1))
    _add(acc, pi_cot(Fraction(p, q)), CosineCombination.from_rational(Fraction(-1, 2)))
    for j in range(1, (q + 1) // 2):
        coeff = CosineCombination.from_cos(Fraction(p * j, q), 2)
        _add(acc, log_sin(Fraction(j, q)), coeff)
    return ClosedForm.build(acc)


def psi_complement(p: int, q: int) -> ClosedForm:
    """Closed form of psi((q-p)/q): the base form with the cotangent sign
    flipped (+(pi/2)cot(pi p/q))."""
    _check_pq(p, q)
    acc: Acc = {GAMMA: CosineCombination.from_rational(-1)}
    _add_log_integer(acc, 2 * q, Fraction(-1))
    _add(acc, pi_cot(Fraction(p, q)), CosineCombination.from_rational(Fraction(1, 2)))
    for j in range(1, q // 2 + 1):
        coeff = CosineCombination.from_cos(Fraction(p * j, q), 2)
        _add(acc, log_sin(Fraction(j, q)), coeff)
    return ClosedForm.build(acc)


def psi_negative_unit(p: int, q: int) -> ClosedForm:
    """Closed form of psi(-p/q) for 1 <= p < q:
    q/p - gamma - ln(2q) - (pi/2)cot(pi (q-p)/q)
    + 2 sum_{j=1}^{floor(q/2)} cos(2 pi (q-p) j/q) ln sin(pi j/q)."""
    _check_pq(p, q)
    acc: Acc = {
        UNIT: CosineCombination.from_rational(Fraction(q, p)),
        GAMMA: CosineCombination.from_rational(-1),
    }
    _add_log_integer(acc, 2 * q, Fraction(-1))
    _add(
        acc,
        pi_cot(Fraction(q - p, q)),
        CosineCombination.from_rational(Fraction(-1, 2)),
    )
    for j in range(1, q // 2 + 1):
        coeff = CosineCombination.from_cos(Fraction((q - p) * j, q), 2)
        _add(acc, log_sin(Fraction(j, q)), coeff)
    return ClosedForm.build(acc)


def psi_closed(r: Fraction) -> ClosedForm:
    """Exact closed form of psi at any non-pole rational.

    Shift-decomposes the argument to a base in (0, 1], applies the base-case
    engine (psi(1) = -gamma for base 1), and adds the exact rational
    correction as a unit term.
    """
    sd = shift_decompose(r)  # raises PoleError at non-positive integers
    if sd.base == 1:
        base_form = ClosedForm.build({GAMMA: CosineCombination.from_rational(-1)})
    else:
        base_form = murty_saradha(sd.base.numerator, sd.base.denominator)
    if sd.correction == 0:
        return base_form
    # the base form is canonical and has no unit term, which sorts first
    unit = (UNIT, CosineCombination.from_rational(sd.correction))
    return ClosedForm((unit, *base_form.coefficients))


def reflect(c: ClosedForm, r: Fraction) -> ClosedForm:
    """Given c = psi(r), return the form of psi(1-r) = psi(r) + pi cot(pi r).

    Requires both r and 1-r to be non-poles, which forces r to be a
    non-integer; the cotangent angle is reduced mod 1 and folded canonically.
    """
    if classify(r) is ArgumentClass.POLE:
        raise PoleError("digamma pole at non-positive integer")
    if classify(1 - r) is ArgumentClass.POLE:
        raise PoleError("digamma pole at non-positive integer (reflected argument)")
    cot_form = ClosedForm.build({pi_cot(r % 1): CosineCombination.from_rational(1)})
    return combine(c, cot_form, 1, 1)
