"""Exact symbolic closed forms for digamma values.

A :class:`ClosedForm` maps irreducible basis constants (1, the Euler constant,
pi*cot(pi*x), ln p for prime p, ln sin(pi*x)) to exact rational cosine
combinations r + sum_k c_k * cos(2*pi*k/q) with r and every c_k rational,
one integer denominator q and integer numerators k, so coefficients such as
2*cos(2*pi*p*j/q) stay exact without any floating point.

Canonical conventions:

* a cosine combination stores its numerators k with 0 < 2k < q and 4k != q,
  strictly increasing, each with a non-zero coefficient: angles are folded
  into [0, 1/2] turn using periodicity and cos(2*pi*(1-x)) = cos(2*pi*x),
  cos(0) = 1 and cos(pi) = -1 are absorbed into the rational part, and
  cos(pi/2) = 0 is dropped;
* its denominator is minimal, gcd(q, k_1, k_2, ...) = 1, and q = 1 when no
  cosine is stored, so one combination has exactly one representation;
* a pi*cot(pi*x) or ln sin(pi*x) angle x = m/q is stored as the reduced
  int pair (m, q) with 0 < m < q, and :meth:`ClosedForm.build` folds it into
  (0, 1/2) using cot(pi*(1-x)) = -cot(pi*x) and sin(pi*(1-x)) = sin(pi*x);
  the x = 1/2 terms are exactly zero (cot(pi/2) = 0, ln 1 = 0) and deleted;
* logarithms of integers are decomposed over primes, so ln(2q) and ln 12
  compare structurally.

Structural equality of canonical forms implies numeric equality.  The
converse does not hold: the cosine angles are linearly dependent over the
rationals (e.g. sum of cos(2*pi*j/q) over j = 1..q-1 equals -1), so value
equality of structurally different forms is checked by evaluating both.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Mapping, Union

from . import _Record
from .rationals import _check_exact

__all__ = [
    "BasisTerm",
    "ClosedForm",
    "CosineCombination",
    "GAMMA",
    "UNIT",
    "log_prime",
    "log_sin",
    "pi_cot",
    "prime_exponents",
    "render",
]

Scalar = Union[int, Fraction]

MIN_DIGITS = 15  # fewest reported digits an evaluation of a form accepts


def _as_fraction(x: Scalar) -> Fraction:
    _check_exact(x, "a coefficient")
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# Cosine-combination coefficients
# ---------------------------------------------------------------------------


class CosineCombination(_Record):
    """rational + sum of coeff*cos(2*pi*k/denominator) with rational coeffs.

    ``cosines`` is a tuple of (k, coeff) pairs with integer numerators k,
    0 < 2k < denominator, strictly increasing, and no zero coefficient; the
    quarter turn 4k = denominator never appears because cos(pi/2) = 0
    exactly.  The denominator is minimal: gcd(denominator, *ks) = 1, and it
    is 1 when there is no cosine.  A coefficient is an int or a Fraction;
    equal values compare and hash equal either way.  Instances are
    immutable and canonical by construction.
    """

    __slots__ = ("rational", "denominator", "cosines")
    rational: Fraction
    denominator: int
    cosines: tuple[tuple[int, Scalar], ...]

    def __init__(
        self,
        rational: Fraction = Fraction(0),
        denominator: int = 1,
        cosines: tuple[tuple[int, Scalar], ...] = (),
    ) -> None:
        q = denominator
        previous = 0  # numerators strictly increase, so each is stored once
        common = q
        for k, coeff in cosines:
            if not previous < k < q - k or 4 * k == q:
                raise ValueError(f"non-canonical cosine angle {k}/{q}")
            previous = k
            common = math.gcd(common, k)
            if coeff == 0:
                raise ValueError("zero cosine coefficient stored")
        if common != 1:
            raise ValueError(f"non-minimal cosine denominator {q}")
        CosineCombination.rational.__set__(self, rational)
        CosineCombination.denominator.__set__(self, denominator)
        CosineCombination.cosines.__set__(self, cosines)

    @classmethod
    def from_rational(cls, value: Scalar) -> "CosineCombination":
        return cls(_as_fraction(value))

    @classmethod
    def from_cos(cls, angle: Fraction, coeff: Scalar = 1) -> "CosineCombination":
        """The combination coeff*cos(2*pi*angle), angle folded canonically."""
        _check_exact(angle, "an angle")
        c = _as_fraction(coeff)
        q = angle.denominator
        k = angle.numerator % q
        k = min(k, q - k)  # cos(2*pi*(1-x)) = cos(2*pi*x)
        if c == 0 or 4 * k == q:
            return cls()  # cos(pi/2) = 0
        if k == 0:
            return cls(c)
        if 2 * k == q:
            return cls(-c)  # cos(pi) = -1
        return cls(Fraction(0), q, ((k, c),))

    @classmethod
    def from_numerators(
        cls, rational: Scalar, q: int, coeffs: Mapping[int, Scalar]
    ) -> "CosineCombination":
        """rational + sum of coeffs[k]*cos(2*pi*k/q) over canonical numerators
        k (0 < 2k < q, 4k != q), zero coefficients dropped and the
        denominator reduced once by the gcd of q and the numerators kept."""
        cosines = sorted((k, c) for k, c in coeffs.items() if c)
        common = math.gcd(q, *(k for k, _ in cosines))
        if common != 1:
            cosines = [(k // common, c) for k, c in cosines]
        return cls(rational, q // common, tuple(cosines))

    @property
    def is_zero(self) -> bool:
        return self.rational == 0 and not self.cosines

    @property
    def is_rational(self) -> bool:
        return not self.cosines

    def __add__(self, other: "CosineCombination") -> "CosineCombination":
        q = math.lcm(self.denominator, other.denominator)
        acc: dict[int, Scalar] = {}
        for part in (self, other):
            lift = q // part.denominator
            for k, c in part.cosines:
                acc[k * lift] = acc.get(k * lift, 0) + c
        return CosineCombination.from_numerators(self.rational + other.rational, q, acc)

    def __neg__(self) -> "CosineCombination":
        return CosineCombination(
            -self.rational, self.denominator, tuple((k, -c) for k, c in self.cosines)
        )


# ---------------------------------------------------------------------------
# Basis terms
# ---------------------------------------------------------------------------

_KIND_ORDER = {"unit": 0, "gamma": 1, "picot": 2, "logprime": 3, "logsin": 4}


def _least_factor(n: int) -> int:
    """The least prime factor of an int n >= 2, by trial division."""
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def _is_prime(n: int) -> bool:
    """True only for an int that is prime: a Fraction, float or bool that
    equals a prime is not one."""
    return type(n) is int and n >= 2 and _least_factor(n) == n


class BasisTerm(_Record):
    """One irreducible basis constant of a closed form.

    kind/arg pairs: ("unit", None) the constant 1; ("gamma", None) the Euler
    constant; ("picot", (m, q)) pi*cot(pi*m/q); ("logprime", p) ln p;
    ("logsin", (m, q)) ln sin(pi*m/q).  An angle m/q is a pair of ints in
    lowest terms with 0 < m < q, and p is a prime int; anything else raises
    ValueError, so every stored term has a finite value.  ``ClosedForm.build``
    folds angles past the half turn; :func:`pi_cot` and :func:`log_sin`
    reduce any non-integer rational angle mod 1.
    """

    __slots__ = ("kind", "arg")
    kind: str
    arg: Union[tuple[int, int], int, None]

    def __init__(self, kind: str, arg: Union[tuple[int, int], int, None] = None) -> None:
        if kind in ("picot", "logsin"):
            if not (
                type(arg) is tuple
                and len(arg) == 2
                and type(arg[0]) is int
                and type(arg[1]) is int
                and 0 < arg[0] < arg[1]
                and math.gcd(*arg) == 1
            ):
                raise ValueError(f"{kind} angle must be reduced ints 0 < m < q, got {arg!r}")
        elif kind == "logprime":
            if not _is_prime(arg):
                raise ValueError(f"log_prime requires a prime, got {arg!r}")
        elif kind not in ("unit", "gamma") or arg is not None:
            raise ValueError(f"unknown basis term {kind!r} with argument {arg!r}")
        BasisTerm.kind.__set__(self, kind)
        BasisTerm.arg.__set__(self, arg)

    def sort_key(self) -> tuple:
        if self.kind in ("picot", "logsin"):
            return (_KIND_ORDER[self.kind], Fraction(*self.arg))
        return (_KIND_ORDER[self.kind], self.arg or 0)


UNIT = BasisTerm("unit")
GAMMA = BasisTerm("gamma")


def _angle_term(kind: str, angle: Fraction, zero: str) -> BasisTerm:
    """The ``kind`` term of a rational angle reduced mod 1; an integer angle
    raises ValueError with the message ``zero.format(angle)``."""
    _check_exact(angle, "an angle")
    q = angle.denominator
    if q == 1:
        raise ValueError(zero.format(angle))
    return BasisTerm(kind, (angle.numerator % q, q))


def pi_cot(angle: Fraction) -> BasisTerm:
    """Basis term pi*cot(pi*angle) for a non-integer rational angle, stored
    mod 1 and folded canonically when a form is built."""
    return _angle_term("picot", angle, "cot(pi*{}) is a pole")


def log_sin(angle: Fraction) -> BasisTerm:
    """Basis term ln sin(pi*angle) for a non-integer rational angle, stored
    mod 1 and folded canonically when a form is built."""
    return _angle_term("logsin", angle, "ln sin(pi*{}) is a log of zero")


def log_prime(p: int) -> BasisTerm:
    return BasisTerm("logprime", p)


def prime_exponents(n: int) -> dict[int, int]:
    """The prime factorization of an int n >= 1 as {p: exponent}, in
    ascending p.  Trial division yields only primes."""
    if n < 1:
        raise ValueError("logarithm of a non-positive integer")
    out: dict[int, int] = {}
    while n > 1:
        f = _least_factor(n)
        out[f] = out.get(f, 0) + 1
        n //= f
    return out


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

CoeffLike = Union[CosineCombination, Fraction, int]
_ZERO = Fraction(0)  # the rational part of every half-sum cosine


def _half_sum(p: int, q: int):
    """The (j, k) of the terms 2 cos(2 pi k/q) ln sin(pi j/q) of the theorem
    half sum sum_{0<j<q/2} 2 cos(2 pi p j/q) ln sin(pi j/q), gcd(p, q) = 1,
    in increasing j: k = p*j mod q folded into (0, q/2) as ``from_cos``
    folds it, less the term of cos(pi/2) = 0 (j = k = q/4); none at q = 2, 4."""
    for j in range(1, (q + 1) // 2):
        k = p * j % q
        if 2 * k > q:
            k = q - k
        if 4 * k != q:
            yield j, k


def _as_combination(c: CoeffLike) -> CosineCombination:
    if isinstance(c, CosineCombination):
        return c
    return CosineCombination.from_rational(c)


class ClosedForm(_Record):
    """Canonical map from basis terms to cosine-combination coefficients.

    The empty form is the exact value 0.  Instances are immutable; build new
    ones with :meth:`build`.

    A theorem form (:mod:`psiq.formulas`) defers its ln sin half sum
    (:func:`_half_sum`): its private slot ``_half`` holds the immutable
    (head, p, q), head the records of its other terms, which sort first and
    have denominators dividing q.  The first read of ``coefficients`` builds
    the sum's records from (p, q) and fills the field in (two threads at
    once build equal tuples), so the form equals, hashes, prints and pickles
    as its eager copy.
    """

    __slots__ = ("coefficients", "_half")
    _defaults = {"coefficients": ()}
    coefficients: tuple[tuple[BasisTerm, CosineCombination], ...]

    def __getattr__(self, name: str):
        # called only for an unset slot: a deferred form's coefficients
        if name != "coefficients":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        head, p, q = self._half
        gcd, records = math.gcd, list(head)
        for j, k in _half_sum(p, q):  # each over its reduced denominator
            g, common = gcd(j, q), gcd(k, q)
            cosine = CosineCombination(_ZERO, q // common, ((k // common, 2),))
            records.append((BasisTerm("logsin", (j // g, q // g)), cosine))
        records = tuple(records)
        ClosedForm.coefficients.__set__(self, records)
        return records

    @classmethod
    def _defer(cls, head: tuple, p: int, q: int) -> "ClosedForm":
        """The form of ``head`` and the half sum of (p, q), deferred."""
        if q in (2, 4):  # the half sum has no term
            return cls(head)
        form = cls.__new__(cls)
        ClosedForm._half.__set__(form, (head, p, q))
        return form

    def _prepend(self, pair: tuple) -> "ClosedForm":
        """This form with ``pair``, whose term sorts first, put first."""
        half = getattr(self, "_half", None)
        if half is None:
            return ClosedForm((pair, *self.coefficients))
        return ClosedForm._defer((pair, *half[0]), *half[1:])

    @classmethod
    def build(
        cls,
        items: Union[
            Mapping[BasisTerm, CoeffLike], Iterable[tuple[BasisTerm, CoeffLike]]
        ],
    ) -> "ClosedForm":
        """Canonicalize and assemble a form from (term, coefficient) pairs.

        Folds a picot/logsin angle m/q past the half turn to (q - m)/q,
        negating the coefficient of pi*cot, deletes the exactly-zero basis
        terms pi*cot(pi/2) and ln sin(pi/2), merges duplicates and drops
        zero coefficients.
        """
        pairs = items.items() if isinstance(items, Mapping) else items
        acc: dict[BasisTerm, CosineCombination] = {}

        def add(term: BasisTerm, coeff: CosineCombination) -> None:
            prior = acc.get(term)
            acc[term] = coeff if prior is None else prior + coeff

        for term, raw in pairs:
            coeff = _as_combination(raw)
            if coeff.is_zero:
                continue
            if term.kind in ("picot", "logsin") and 2 * term.arg[0] >= term.arg[1]:
                m, q = term.arg
                if 2 * m == q:
                    continue  # cot(pi/2) = 0 and ln sin(pi/2) = 0
                term = BasisTerm(term.kind, (q - m, q))
                if term.kind == "picot":
                    coeff = -coeff  # cot(pi*(1-x)) = -cot(pi*x)
            add(term, coeff)

        cleaned = [(t, c) for t, c in acc.items() if not c.is_zero]
        cleaned.sort(key=lambda tc: tc[0].sort_key())
        return cls(tuple(cleaned))

    @property
    def is_zero(self) -> bool:
        return not self.coefficients


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _int_text(n: int) -> str:
    # str(int) obeys sys.get_int_max_str_digits() (4300 by default), which
    # shift corrections exceed; Decimal gives the same digits with no limit,
    # in quadratic time, so the plain and the LaTeX render share each text
    return str(Decimal(n))


def _frac(x: Scalar, latex: bool) -> str:
    """A non-negative rational as text."""
    if x.denominator == 1:
        return _int_text(x.numerator)
    n, d = _int_text(x.numerator), _int_text(x.denominator)
    return rf"\frac{{{n}}}{{{d}}}" if latex else f"{n}/{d}"


def _times(mag: Scalar, body: str, latex: bool) -> str:
    """A positive rational times a basis body; mag alone for an empty body."""
    if not body:
        return _frac(mag, latex)
    if mag == 1:
        return body
    text = _frac(mag, latex)
    if latex:
        return text + body
    return f"{text}*{body}" if mag.denominator == 1 else f"({text})*{body}"


def _signed_join(pieces: Iterable[tuple[bool, str]]) -> str:
    """(negative, text) pieces joined by ' + ' and ' - ', a leading '-' bare."""
    out: list[str] = []
    for negative, text in pieces:
        if out:
            out.append(f"- {text}" if negative else f"+ {text}")
        else:
            out.append(f"-{text}" if negative else text)
    return " ".join(out)


# kind: (plain, latex) text of the basis constant, {} its argument
_BODIES = {
    "unit": ("", ""),
    "gamma": ("gamma", r"\gamma"),
    "picot": ("pi*cot(pi*{})", r"\pi\cot(\pi\cdot{})"),
    "logprime": ("ln({})", r"\ln({})"),
    "logsin": ("ln(sin(pi*{}))", r"\ln\sin(\pi\cdot{})"),
    "cos": ("cos(2*pi*{})", r"\cos(2\pi\cdot{})"),
}


def _combination(c: CosineCombination, latex: bool) -> str:
    pieces = []
    if c.rational != 0 or not c.cosines:
        pieces.append((c.rational < 0, _frac(abs(c.rational), latex)))
    for k, coeff in c.cosines:
        body = _BODIES["cos"][latex].format(Fraction(k, c.denominator))
        pieces.append((coeff < 0, _times(abs(coeff), body, latex)))
    return _signed_join(pieces)


def render(c: ClosedForm, format: str = "plain") -> str:
    """Deterministic text for a canonical form.

    Plain output stays inside the corpus expression grammar (with the sin/
    cos/cot extension), so it can be re-parsed and evaluated; terms appear
    in the fixed order unit, gamma, pi*cot, ln p, ln sin.
    """
    if format not in ("plain", "latex"):
        raise ValueError(f"unknown render format {format!r}")
    latex = format == "latex"
    if c.is_zero:
        return "0"
    pieces = []
    for term, coeff in c.coefficients:
        arg = "/".join(map(str, term.arg)) if type(term.arg) is tuple else term.arg
        body = _BODIES[term.kind][latex].format(arg)
        if coeff.is_rational:
            pieces.append((coeff.rational < 0, _times(abs(coeff.rational), body, latex)))
        else:
            inner = _combination(coeff, latex)
            wrapped = rf"\left({inner}\right)" if latex else f"({inner})"
            pieces.append((False, f"{wrapped}{'' if latex or not body else '*'}{body}"))
    return _signed_join(pieces)
