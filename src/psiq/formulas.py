"""Closed-form constructors for digamma values at rational arguments.

The base-case engine is the Murty-Saradha form of the classical rational-
argument theorem; the Gauss (1813) and Nielsen forms are built from their own
sums so the three can be cross-checked, and the shortened-sum variant printed
in Gradshteyn-Ryzhik 8.363(6) is kept verbatim for the errata analyzer.  All
four come from one linear-time builder, :func:`_theorem_form`.  The top-level
dispatcher :func:`psi_closed` covers every non-pole rational by combining the
exact unit-shift recurrence with the base-case engine.
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
    factor_log_integer,
    pi_cot,
)
from .rationals import PoleError, shift_decompose

__all__ = [
    "gauss_1813",
    "gr_variant",
    "murty_saradha",
    "nielsen",
    "psi_closed",
    "reflect",
]


def _check_pq(p: int, q: int) -> None:
    if not (isinstance(p, int) and isinstance(q, int)):
        raise ValueError("p and q must be integers")
    if q < 2 or not 1 <= p < q:
        raise ValueError(f"require 1 <= p < q with q >= 2, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"require gcd(p, q) = 1, got p={p}, q={q}")


_ZERO = Fraction(0)  # the rational part of every single-cosine combination


def _combination(acc: dict[int, int], q: int) -> CosineCombination:
    """Freeze {k: c} (k = 0 the rational part) as sum_k c*cos(2 pi k/q)."""
    return CosineCombination.from_numerators(Fraction(acc.pop(0, 0)), q, acc)


def _cosine(k: int, w: int, q: int) -> CosineCombination:
    """w*cos(2 pi k/q) for a folded k (k = 0 the rational part), over the
    reduced denominator."""
    if k == 0:
        return CosineCombination(Fraction(w))
    common = math.gcd(k, q)
    return CosineCombination(_ZERO, q // common, ((k // common, w),))


def _theorem_form(
    p: int,
    q: int,
    log_arg: int,
    upper: int,
    weight: int,
    ln2_mass: bool,
    halve_middle: bool = False,
) -> ClosedForm:
    """-gamma - ln(log_arg) - (pi/2)cot(pi p/q)
    + sum_{j=1}^{upper} w_j cos(2 pi p j/q) [ln sin(pi j/q) + (ln 2 if ln2_mass)],

    with w_j = weight, halved at j = q/2 if halve_middle.  The sum runs in
    linear time over integers: ln sin folds j to m = min(j, q - j), where
    j = q/2 gives ln sin(pi/2) = 0, and each cosine folds k = p*j mod q into
    [0, q/2] the way ``from_cos`` does.  j and q - j fold to the same k, so
    each ln sin(pi m/q) carries one cosine, whose weights are summed; the
    ln 2 mass is an integer map keyed by k.  The cotangent angle is folded
    into (0, 1/2] and the ln 2 mass merged with the ln 2 of ln(log_arg)
    here, so the terms come out canonical and in canonical order, and the
    form is frozen without ``ClosedForm.build``.
    """
    _check_pq(p, q)
    log_sins: dict[int, tuple[int, int]] = {}  # m -> (k, summed weight)
    logs = {term.arg: {0: -exponent} for term, exponent in factor_log_integer(log_arg).items()}
    ln2 = logs.setdefault(2, {})  # receives the sum's mass if ln2_mass
    for j in range(1, upper + 1):
        w = weight // 2 if halve_middle and 2 * j == q else weight
        k = p * j % q
        if 2 * k > q:
            k = q - k
        if 4 * k == q:
            continue  # cos(pi/2) = 0
        if 2 * k == q:
            k, w = 0, -w  # cos(pi) = -1; k = 0 is the rational part
        m = min(j, q - j)
        if 2 * m != q:
            prior = log_sins.get(m)
            log_sins[m] = (k, w) if prior is None else (k, prior[1] + w)
        if ln2_mass:
            ln2[k] = ln2.get(k, 0) + w
    coefficients = [(GAMMA, CosineCombination(Fraction(-1)))]
    if 2 * p != q:  # cot(pi/2) = 0; cot(pi (1 - x)) = -cot(pi x)
        cot = CosineCombination(Fraction(1 if 2 * p > q else -1, 2))
        coefficients.append((BasisTerm("picot", (min(p, q - p), q)), cot))
    for prime, acc in sorted(logs.items()):
        coefficients.append((BasisTerm("logprime", prime), _combination(acc, q)))
    for m, (k, w) in sorted(log_sins.items()):
        g = math.gcd(m, q)
        coefficients.append((BasisTerm("logsin", (m // g, q // g)), _cosine(k, w, q)))
    return ClosedForm(tuple((term, c) for term, c in coefficients if not c.is_zero))


def murty_saradha(p: int, q: int) -> ClosedForm:
    """-gamma - ln(2q) - (pi/2)cot(pi p/q)
    + 2 sum_{j=1}^{floor(q/2)} cos(2 pi p j/q) ln sin(pi j/q).

    For even q the j = q/2 summand multiplies ln sin(pi/2) = 0 and vanishes
    from the canonical form.
    """
    return _theorem_form(p, q, 2 * q, q // 2, 2, ln2_mass=False)


def gauss_1813(p: int, q: int) -> ClosedForm:
    """-gamma - ln q - (pi/2)cot(pi p/q)
    + sum'_{j=1}^{floor(q/2)} cos(2 pi j p/q) ln(2 - 2 cos(2 pi j/q)),

    where the primed sum halves the j = q/2 term for even q.  Each
    ln(2 - 2 cos(2 pi j/q)) is rewritten exactly as 2 ln 2 + 2 ln sin(pi j/q)
    (since 2 - 2 cos t = 4 sin^2(t/2)) so all three formulas share one basis;
    unlike the doubled-sum form, the halved j = q/2 term contributes real
    2 ln 2 mass here.
    """
    return _theorem_form(p, q, q, q // 2, 2, ln2_mass=True, halve_middle=True)


def nielsen(p: int, q: int) -> ClosedForm:
    """-gamma - ln q - (pi/2)cot(pi p/q)
    + sum_{j=1}^{q-1} cos(2 pi p j/q) [ln 2 + ln sin(pi j/q)]."""
    return _theorem_form(p, q, q, q - 1, 1, ln2_mass=True)


def gr_variant(p: int, q: int) -> ClosedForm:
    """The Murty-Saradha form with upper limit floor((q+1)/2) - 1, exactly as
    printed in Gradshteyn-Ryzhik 8.363(6); kept uncorrected so the errata
    analyzer can measure any discrepancy."""
    return _theorem_form(p, q, 2 * q, (q + 1) // 2 - 1, 2, ln2_mass=False)


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

    Requires both r and 1-r to be non-poles, which holds exactly when r is
    not an integer; the cotangent angle is reduced mod 1 and folded
    canonically.
    """
    if r.denominator == 1:
        raise PoleError("digamma pole at non-positive integer (r or 1 - r)")
    return ClosedForm.build((*c.coefficients, (pi_cot(r % 1), 1)))
