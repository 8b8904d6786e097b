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
* pi*cot(pi*x) angles are folded into (0, 1/2] using
  cot(pi*(1-x)) = -cot(pi*x); the x = 1/2 term is exactly zero and is deleted;
* ln sin(pi*x) angles are folded into (0, 1/2] using
  sin(pi*(1-x)) = sin(pi*x); the x = 1/2 term is ln 1 = 0 and is deleted;
* logarithms of integers are decomposed over primes, so ln(2q) and ln 12
  compare structurally.

Structural equality of canonical forms implies numeric equality.  The
converse does not hold: the cosine angles are linearly dependent over the
rationals (e.g. sum of cos(2*pi*j/q) over j = 1..q-1 equals -1), so value
equality of structurally different forms is checked by evaluating both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Mapping, Union

__all__ = [
    "BasisTerm",
    "ClosedForm",
    "CosineCombination",
    "GAMMA",
    "UNIT",
    "factor_log_integer",
    "log_prime",
    "log_sin",
    "pi_cot",
    "render",
]

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)

Scalar = Union[int, Fraction]


def _as_fraction(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# Cosine-combination coefficients
# ---------------------------------------------------------------------------


def _fold_cos_angle(angle: Fraction) -> Fraction:
    """Fold an angle (in full turns) into [0, 1/2] for cos(2*pi*angle)."""
    a = angle % 1
    if a > _HALF:
        a = 1 - a
    return a


@dataclass(frozen=True)
class CosineCombination:
    """rational + sum of coeff*cos(2*pi*k/denominator) with rational coeffs.

    ``cosines`` is a tuple of (k, coeff) pairs with integer numerators k,
    0 < 2k < denominator, strictly increasing, and no zero coefficient; the
    quarter turn 4k = denominator never appears because cos(pi/2) = 0
    exactly.  The denominator is minimal: gcd(denominator, *ks) = 1, and it
    is 1 when there is no cosine.  A coefficient is an int or a Fraction;
    equal values compare and hash equal either way.  Instances are
    immutable and canonical by construction.
    """

    rational: Fraction = Fraction(0)
    denominator: int = 1
    cosines: tuple[tuple[int, Scalar], ...] = ()

    def __post_init__(self) -> None:
        q = self.denominator
        previous = 0  # numerators strictly increase, so each is stored once
        common = q
        for k, coeff in self.cosines:
            if not previous < k < q - k or 4 * k == q:
                raise ValueError(f"non-canonical cosine angle {k}/{q}")
            previous = k
            common = math.gcd(common, k)
            if coeff == 0:
                raise ValueError("zero cosine coefficient stored")
        if common != 1:
            raise ValueError(f"non-minimal cosine denominator {q}")

    @classmethod
    def from_rational(cls, value: Scalar) -> "CosineCombination":
        return cls(_as_fraction(value))

    @classmethod
    def from_cos(cls, angle: Fraction, coeff: Scalar = 1) -> "CosineCombination":
        """The combination coeff*cos(2*pi*angle), angle folded canonically."""
        c = _as_fraction(coeff)
        if c == 0:
            return cls()
        a = _fold_cos_angle(angle)
        if a == 0:
            return cls(c)
        if a == _HALF:
            return cls(-c)
        if a == _QUARTER:
            return cls()
        return cls(Fraction(0), a.denominator, ((a.numerator, c),))

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


@dataclass(frozen=True)
class BasisTerm:
    """One irreducible basis constant of a closed form.

    kind/arg pairs: ("unit", None) the constant 1; ("gamma", None) the Euler
    constant; ("picot", x) pi*cot(pi*x); ("logprime", p) ln p;
    ("logsin", x) ln sin(pi*x).
    """

    kind: str
    arg: Union[Fraction, int, None] = None

    def sort_key(self) -> tuple:
        return (_KIND_ORDER[self.kind], self.arg if self.arg is not None else 0)


UNIT = BasisTerm("unit")
GAMMA = BasisTerm("gamma")


def _is_prime(n: int) -> bool:
    """True only for an int that is prime: a Fraction, float or bool that
    equals a prime is not one."""
    if type(n) is not int or n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def pi_cot(angle: Fraction) -> BasisTerm:
    """Basis term pi*cot(pi*angle); any non-integer rational angle is accepted
    and folded canonically when a form is built."""
    angle = _as_fraction(angle)
    if angle.denominator == 1:
        raise ValueError(f"cot(pi*{angle}) is a pole")
    return BasisTerm("picot", angle)


def log_sin(angle: Fraction) -> BasisTerm:
    """Basis term ln sin(pi*angle); non-integer rational angle, folded on build."""
    angle = _as_fraction(angle)
    if angle.denominator == 1:
        raise ValueError(f"ln sin(pi*{angle}) is a log of zero")
    return BasisTerm("logsin", angle)


def log_prime(p: int) -> BasisTerm:
    if not _is_prime(p):
        raise ValueError(f"log_prime requires a prime, got {p}")
    return BasisTerm("logprime", p)


def factor_log_integer(n: int) -> dict[BasisTerm, Fraction]:
    """Decompose ln n (n >= 1) over prime logarithms: {ln p: multiplicity}.
    Trial division yields only primes, so no factor is tested again."""
    if n < 1:
        raise ValueError("logarithm of a non-positive integer")
    out: dict[BasisTerm, Fraction] = {}
    m = n
    f = 2
    while f * f <= m:
        while m % f == 0:
            term = BasisTerm("logprime", f)
            out[term] = out.get(term, Fraction(0)) + 1
            m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        term = BasisTerm("logprime", m)
        out[term] = out.get(term, Fraction(0)) + 1
    return out


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

CoeffLike = Union[CosineCombination, Fraction, int]


def _as_combination(c: CoeffLike) -> CosineCombination:
    if isinstance(c, CosineCombination):
        return c
    return CosineCombination.from_rational(c)


@dataclass(frozen=True)
class ClosedForm:
    """Canonical map from basis terms to cosine-combination coefficients.

    The empty form is the exact value 0.  Instances are immutable; build new
    ones with :meth:`build`.
    """

    coefficients: tuple[tuple[BasisTerm, CosineCombination], ...] = ()

    @classmethod
    def build(
        cls,
        items: Union[
            Mapping[BasisTerm, CoeffLike], Iterable[tuple[BasisTerm, CoeffLike]]
        ],
    ) -> "ClosedForm":
        """Canonicalize and assemble a form from (term, coefficient) pairs.

        Folds picot/logsin angles into (0, 1/2], deletes the exactly-zero
        basis terms pi*cot(pi/2) and ln sin(pi/2), merges duplicates and
        drops zero coefficients.
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
            if term.kind == "picot":
                a = term.arg % 1
                if a == 0:
                    raise ValueError("cot(pi*integer) is a pole")
                if a > _HALF:
                    a = 1 - a
                    coeff = -coeff
                if a == _HALF:
                    continue  # cot(pi/2) = 0
                add(BasisTerm("picot", a), coeff)
            elif term.kind == "logsin":
                a = term.arg % 1
                if a == 0:
                    raise ValueError("ln sin(pi*integer) is a log of zero")
                if a > _HALF:
                    a = 1 - a
                if a == _HALF:
                    continue  # ln sin(pi/2) = 0
                add(BasisTerm("logsin", a), coeff)
            elif term.kind == "logprime":
                if not _is_prime(term.arg):
                    raise ValueError(f"log_prime requires a prime, got {term.arg}")
                add(term, coeff)
            elif term.kind in ("unit", "gamma"):
                add(term, coeff)
            else:
                raise ValueError(f"unknown basis term kind {term.kind!r}")

        cleaned = [(t, c) for t, c in acc.items() if not c.is_zero]
        cleaned.sort(key=lambda tc: tc[0].sort_key())
        return cls(tuple(cleaned))

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient(self, term: BasisTerm) -> CosineCombination:
        for t, c in self.coefficients:
            if t == term:
                return c
        return CosineCombination()


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _int_text(n: int) -> str:
    # str(int) obeys sys.get_int_max_str_digits() (4300 by default), which
    # shift corrections exceed; Decimal gives the same digits with no limit
    return str(Decimal(n))


def _frac_plain(x: Fraction) -> str:
    if x.denominator == 1:
        return _int_text(x.numerator)
    return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"


def _frac_latex(x: Fraction) -> str:
    if x.denominator == 1:
        return _int_text(x.numerator)
    sign = "-" if x < 0 else ""
    return rf"{sign}\frac{{{_int_text(abs(x.numerator))}}}{{{_int_text(x.denominator)}}}"


def _combination_plain(c: CosineCombination) -> str:
    parts: list[str] = []
    if c.rational != 0 or not c.cosines:
        parts.append(_frac_plain(c.rational))
    for k, coeff in c.cosines:
        body = f"cos(2*pi*{Fraction(k, c.denominator)})"
        mag = abs(coeff)
        if mag == 1:
            piece = body
        elif mag.denominator == 1:
            piece = f"{_frac_plain(mag)}*{body}"
        else:
            piece = f"({_frac_plain(mag)})*{body}"
        if not parts:
            parts.append(piece if coeff > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if coeff > 0 else f"- {piece}")
    return " ".join(parts)


def _combination_latex(c: CosineCombination) -> str:
    parts: list[str] = []
    if c.rational != 0 or not c.cosines:
        parts.append(_frac_latex(c.rational))
    for k, coeff in c.cosines:
        body = rf"\cos(2\pi\cdot{Fraction(k, c.denominator)})"
        mag = abs(coeff)
        piece = body if mag == 1 else rf"{_frac_latex(mag)}{body}"
        if not parts:
            parts.append(piece if coeff > 0 else f"-{piece}")
        else:
            parts.append(f"+ {piece}" if coeff > 0 else f"- {piece}")
    return " ".join(parts)


def _term_body(term: BasisTerm, latex: bool) -> str:
    if term.kind == "unit":
        return ""
    if term.kind == "gamma":
        return r"\gamma" if latex else "gamma"
    if term.kind == "picot":
        if latex:
            return rf"\pi\cot(\pi\cdot{term.arg})"
        return f"pi*cot(pi*{term.arg})"
    if term.kind == "logprime":
        return rf"\ln({term.arg})" if latex else f"ln({term.arg})"
    if term.kind == "logsin":
        if latex:
            return rf"\ln\sin(\pi\cdot{term.arg})"
        return f"ln(sin(pi*{term.arg}))"
    raise ValueError(f"unknown basis term kind {term.kind!r}")


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
    pieces: list[str] = []
    for term, coeff in c.coefficients:
        body = _term_body(term, latex)
        if coeff.is_rational:
            q = coeff.rational
            mag = abs(q)
            if not body:
                text = _frac_latex(mag) if latex else _frac_plain(mag)
            elif mag == 1:
                text = body
            elif latex:
                text = rf"{_frac_latex(mag)}{body}"
            elif mag.denominator == 1:
                text = f"{_frac_plain(mag)}*{body}"
            else:
                text = f"({_frac_plain(mag)})*{body}"
            negative = q < 0
        else:
            inner = _combination_latex(coeff) if latex else _combination_plain(coeff)
            wrapped = rf"\left({inner}\right)" if latex else f"({inner})"
            text = wrapped if not body else (wrapped + (body if latex else f"*{body}"))
            negative = False
        if not pieces:
            pieces.append(f"-{text}" if negative else text)
        else:
            pieces.append(f"- {text}" if negative else f"+ {text}")
    return " ".join(pieces)
