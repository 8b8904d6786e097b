"""Exact rational arguments: parsing, the pole test, shift decomposition.

Rationals are plain :class:`fractions.Fraction` values, which are always in
lowest terms with a positive denominator.  Everything here is pure and exact;
no rounding ever happens in this module.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from . import _Record

__all__ = [
    "PoleError",
    "ShiftDecomposition",
    "is_pole",
    "parse_rational",
    "shift_decompose",
    "upward_sum",
]


class PoleError(ValueError):
    """Raised when the digamma function is requested at a non-positive integer."""


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse the text form of a rational: optional '-', integer, optional '/integer'.

    The result is in lowest terms.  Raises ValueError ("malformed rational")
    for any other text and ("undefined rational") for a zero denominator.
    """
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed rational: {text!r}")
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError("undefined rational: denominator is zero")
    return Fraction(int(m.group(1)), den)


def _check_exact(x: object, what: str) -> None:
    """Reject a number that is not exact: a float 0.1 would be read as a
    binary fraction over 2^55.  A bool is rejected too."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError(f"{what} must be an int or a Fraction, got {x!r}")


def is_pole(r: Fraction) -> bool:
    """Whether r is a pole of the digamma function: 0, -1, -2, ...

    Raises ValueError for an r that is not an int or a Fraction: a float
    0.1 is not the rational it reads as.
    """
    _check_exact(r, "an argument")
    return r.denominator == 1 and r <= 0


class ShiftDecomposition(_Record):
    """Reduction of an argument to a base in (0, 1] plus an exact correction.

    The defining identity is psi(input) = psi(base) + correction, obtained by
    applying psi(z+1) = psi(z) + 1/z exactly ``step_count`` times (downward for
    inputs above 1, upward for negative inputs).
    """

    __slots__ = ("base", "correction", "step_count")
    base: Fraction
    correction: Fraction
    step_count: int


# most terms per leaf of the splitting in _reciprocal_sum; a leaf of a longer
# sum holds between half of this and all of it.  Sizes 8 to 128 were timed at
# 479 and 12,000 steps: the sum gets faster up to about 48 and then flattens,
# and 32 is within 9 % of the fastest size.  A leaf keeps the product of its
# terms, so the top denominator grows with the leaf: at 10**4 steps from 1/3
# it exceeds the reduced one by 30 bits at 32 (leaves of 20 terms) and by 108
# at 40 to 64 (leaves of 40).
_LEAF = 32


def _reciprocal_sum(a: int, c: int, lo: int, hi: int) -> tuple[int, int]:
    """Return (p, q) with p/q = sum of 1/(a + c*k) for lo <= k < hi.

    Binary splitting over leaves of at most ``_LEAF`` terms.  A leaf sums its
    terms in one loop over the product of their denominators.  Above the
    leaves, halves merge over g = gcd(q1, q2) as
    (p1*(q2/g) + p2*(q1/g), (q1/g)*q2), so each node's denominator is the lcm
    of its two halves' and the top one is within a few bits of the reduced
    denominator of the sum.  p/q itself is not reduced.
    """
    if hi - lo <= _LEAF:
        p, q = 0, 1
        for d in range(a + c * lo, a + c * hi, c):
            p, q = p * d + q, q * d
        return p, q
    mid = (lo + hi) // 2
    p1, q1 = _reciprocal_sum(a, c, lo, mid)
    p2, q2 = _reciprocal_sum(a, c, mid, hi)
    g = math.gcd(q1, q2)
    r1, r2 = q1 // g, q2 // g
    return p1 * r2 + p2 * r1, r1 * q2


def upward_sum(x: Fraction, n: int) -> Fraction:
    """Sum of 1/(x + k) for 0 <= k < n, by binary splitting (0 for n = 0).

    With x = a/c the sum is c * sum of 1/(a + c*k); no term may be 1/0.  The
    splitting keeps each node over the lcm of its range's denominators
    (``_reciprocal_sum``), so the final Fraction reduces a numerator and
    denominator that are within a few bits of their reduced sizes.
    """
    if n == 0:
        return Fraction(0)
    a, c = x.numerator, x.denominator
    p, q = _reciprocal_sum(a, c, 0, n)
    return Fraction(c * p, q)


def shift_decompose(r: Fraction) -> ShiftDecomposition:
    """Decompose a non-pole rational as psi(r) = psi(base) + correction, base in (0,1].

    With x = a/c the base (downward, r > 1) or r itself (upward, r < 0), the
    correction is +-c * sum of 1/(a + c*k) over the n = step_count terms.  The
    sum is formed by binary splitting (Haible & Papanikolaou, 1998) in
    O(log n) levels of balanced products, with each node kept over the lcm of
    its range's denominators: halves merge over g = gcd(q1, q2) as
    (p1*(q2/g) + p2*(q1/g), (q1/g)*q2), and only the leaves of ``_LEAF``
    terms use the plain product.  The top denominator is then within a few
    bits of the lcm of all n terms, so the gcd that reduces the Fraction
    (quadratic in its operands) runs on numbers of about the reduced size,
    not on the O(n log(nc))-bit product of every term: at 10**4 steps from
    1/3, 32,475 bits against the reduced 32,445 and the product's 134,298.
    """
    if is_pole(r):
        raise PoleError("digamma pole at non-positive integer")
    if 0 < r <= 1:
        return ShiftDecomposition(base=r, correction=Fraction(0), step_count=0)
    if r > 1:
        n = math.ceil(r) - 1
        base = r - n
        sign, x = 1, base
    else:
        # negative non-integer: shift upward into (0, 1)
        n = math.ceil(-r)
        base = r + n
        sign, x = -1, r
    return ShiftDecomposition(base=base, correction=sign * upward_sum(x, n), step_count=n)
