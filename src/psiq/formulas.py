"""Closed-form constructors for digamma values at rational arguments.

The base-case engine is the Murty-Saradha form of the classical rational-
argument theorem.  It, the Gauss (1813) and Nielsen forms, and the variant
printed in Gradshteyn-Ryzhik 8.363(6) all come from one linear-time half-sum
builder, :func:`_theorem_form`, as two distinct forms: gauss_1813(p, q) ==
nielsen(p, q), and gr_variant(p, q) == murty_saradha(p, q) since the printed
GR limit drops only the zero j = q/2 summand.  So ``compare`` checks the
builder against itself; the independent check is the term-by-term references
in ``tests/test_formulas.py``, the GR one at the printed limit.  The top-level
dispatcher :func:`psi_closed` covers every non-pole rational by combining the
exact unit-shift recurrence with the base-case engine.  Each form defers the
records of its ln sin half sum to their first read (:class:`ClosedForm`).
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
    _half_sum,
    pi_cot,
    prime_exponents,
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
    if any(isinstance(x, bool) or not isinstance(x, int) for x in (p, q)):
        raise ValueError(f"p and q must be ints, got p={p!r}, q={q!r}")
    if q < 2 or not 1 <= p < q:
        raise ValueError(f"require 1 <= p < q with q >= 2, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"require gcd(p, q) = 1, got p={p}, q={q}")


_MINUS_GAMMA = CosineCombination(Fraction(-1))
# -(1/2) cot(pi p/q) folded into (0, 1/2]: indexed by 2p > q
_HALF_COT = (CosineCombination(Fraction(-1, 2)), CosineCombination(Fraction(1, 2)))
_LN2 = BasisTerm("logprime", 2)


def _theorem_form(p: int, q: int, ln2_mass: bool) -> ClosedForm:
    """-gamma - ln(q if ln2_mass else 2q) - (pi/2)cot(pi p/q)
    + sum'_{j=1}^{floor(q/2)} 2 cos(2 pi p j/q) [ln sin(pi j/q) + (ln 2 if ln2_mass)],
    where the prime gives the j = q/2 term of an even q weight 1.

    The head is built at once, in canonical order and linear time over
    integers: ln q or ln 2q is factored in ints, the cotangent angle is
    folded into (0, 1/2], and the ln 2 mass is an integer map over the k of
    the half sum (``_half_sum``), the only coefficient that can cancel to
    zero.  The ln sin half sum over j < q/2 (the j = q/2 term is
    ln sin(pi/2) = 0) is deferred as (p, q), so no form is frozen by
    ``ClosedForm.build``, and an evaluation builds no ln sin record.
    """
    _check_pq(p, q)
    exponents = prime_exponents(q if ln2_mass else 2 * q)
    head = [(GAMMA, _MINUS_GAMMA)]
    if 2 * p != q:  # cot(pi/2) = 0; cot(pi (1 - x)) = -cot(pi x)
        head.append((BasisTerm("picot", (min(p, q - p), q)), _HALF_COT[2 * p > q]))
    if ln2_mass:
        # each k comes once: j -> +-p*j mod q is one-to-one on 0 < j < q/2
        ln2 = dict.fromkeys((k for _, k in _half_sum(p, q)), 2)
        # the j = q/2 term of an even q: weight 1 times cos(pi) = -1
        rational = Fraction(q % 2 - 1 - exponents.pop(2, 0))
        ln2_coefficient = CosineCombination.from_numerators(rational, q, ln2)
        if not ln2_coefficient.is_zero:
            head.append((_LN2, ln2_coefficient))
    for prime, exponent in exponents.items():
        head.append((BasisTerm("logprime", prime), CosineCombination(Fraction(-exponent))))
    return ClosedForm._defer(tuple(head), p, q)


def murty_saradha(p: int, q: int) -> ClosedForm:
    """-gamma - ln(2q) - (pi/2)cot(pi p/q)
    + 2 sum_{j=1}^{floor(q/2)} cos(2 pi p j/q) ln sin(pi j/q).

    For even q the j = q/2 summand multiplies ln sin(pi/2) = 0, so the primed
    half sum, which gives it weight 1, is the same form.
    """
    return _theorem_form(p, q, ln2_mass=False)


def gauss_1813(p: int, q: int) -> ClosedForm:
    """-gamma - ln q - (pi/2)cot(pi p/q)
    + sum'_{j=1}^{floor(q/2)} cos(2 pi j p/q) ln(2 - 2 cos(2 pi j/q)),

    where the primed sum halves the j = q/2 term for even q.  Since
    2 - 2 cos t = 4 sin^2(t/2), each ln(2 - 2 cos(2 pi j/q)) is exactly
    2 ln 2 + 2 ln sin(pi j/q): the primed half sum with ln 2 mass.
    """
    return _theorem_form(p, q, ln2_mass=True)


def nielsen(p: int, q: int) -> ClosedForm:
    """-gamma - ln q - (pi/2)cot(pi p/q)
    + sum_{j=1}^{q-1} cos(2 pi p j/q) [ln 2 + ln sin(pi j/q)].

    j and q - j carry the same ln sin and the same cosine, so the full sum
    folds to the Gauss form's primed half sum: weight 2 for j < q/2, and
    weight 1 for the unpaired j = q/2 of an even q.
    """
    return _theorem_form(p, q, ln2_mass=True)


def gr_variant(p: int, q: int) -> ClosedForm:
    """The Murty-Saradha form with upper limit floor((q+1)/2) - 1, as printed
    in Gradshteyn-Ryzhik 8.363(6).  The limit equals floor(q/2) for odd q and
    drops only the zero j = q/2 summand for even q, so the form is built by
    the Murty-Saradha call; the term-by-term reference in the tests keeps the
    printed limit."""
    return _theorem_form(p, q, ln2_mass=False)


def psi_closed(r: Fraction) -> ClosedForm:
    """Exact closed form of psi at any non-pole rational.

    Shift-decomposes the argument to a base in (0, 1], applies the base-case
    engine (psi(1) = -gamma for base 1), and adds the exact rational
    correction as a unit term, leaving the base form's half sum deferred.
    """
    sd = shift_decompose(r)  # raises PoleError at non-positive integers
    if sd.base == 1:
        base_form = ClosedForm(((GAMMA, _MINUS_GAMMA),))
    else:
        base_form = murty_saradha(sd.base.numerator, sd.base.denominator)
    if sd.correction == 0:
        return base_form
    # the base form is canonical and has no unit term, which sorts first
    return base_form._prepend((UNIT, CosineCombination.from_rational(sd.correction)))


def reflect(c: ClosedForm, r: Fraction) -> ClosedForm:
    """Given c = psi(r), return the form of psi(1-r) = psi(r) + pi cot(pi r).

    Requires both r and 1-r to be non-poles, which holds exactly when r is
    not an integer; the cotangent angle is reduced mod 1 and folded
    canonically.
    """
    if r.denominator == 1:
        raise PoleError("digamma pole at non-positive integer (r or 1 - r)")
    return ClosedForm.build((*c.coefficients, (pi_cot(r % 1), 1)))
