"""Arbitrary-precision evaluation and independent numeric digamma oracles.

Values are mpmath floats carried at ``digits + GUARD_DIGITS`` (15) working
decimal digits, W bits; results reported at D digits are accurate to
well within 10 units in the last digit for exact inputs.  Comparisons
throughout the package use the tolerance 10^-(D-10).

A closed form is evaluated in integer fixed point at P = W + 32 bits.  Its
ln sin(pi*j/q) and cos(2*pi*k/q) values come from one table per common
denominator q (:class:`_SineTable`), which stores both, formed at fill time
from sines sin(pi*j/q) within 0.51*2^-P: cos(2*pi*k/q) = 1 - 2 sin^2(pi*k/q)
to within 3*2^-P and ln sin(pi*j/q) to within (1 + q/(3j))*2^-P.  That last
bound has three parts, in units of 2^-P: q/(3j) from the error of the sine;
below 2^-8 for the rounding that a chain of at most 63 atanh steps at
P + 16 bits accumulates, which gives the logs from j = 32 on; and the final
rounding to P bits, 1/2 for a chained log and 1 for the logs j < 32, which
libmp's log gives directly.  pi, gamma, ln p and pi*cot(pi*x) enter rounded
to W bits.  The coefficient x basis products and their sum are exact
integers, rounded once to W bits; a theorem form's deferred half sum adds
the products of its records from (p, q).

The tables and those four constants live in one cache (:class:`_ValueCache`),
a bounded, thread-safe LRU whose budget counts slots: q//2 + 1 per table, one
per constant.  Its keys hold only ints and strings, its values are
context-free (tables of integers, raw libmp constants), and each thread wraps
a constant in its own mpmath context.

Two independent digamma oracles are provided:

* :func:`oracle_psi_series` - direct partial sum of
  psi(z) = -gamma - 1/z + sum_{n>=1} z/(n(z+n)) with a rigorous tail bound;
* :func:`oracle_psi_asymptotic` - exact upward recurrence to x >= 4D
  followed by the de Moivre expansion
  ln x - 1/(2x) - sum_{k<=K} B_{2k}/(2k x^{2k}), correctly rounded to W
  bits.  K is counted in advance: the least K whose first omitted term is
  at most 2^-(P+1) by |B_2k| < 4(2k)!/(2pi)^(2k), at P = W + 64 bits.  The
  sum and the shift correction are formed in integer fixed point at P bits,
  within K + 5 units of 2^-P, and rounded once; when that bound straddles
  a rounding boundary, P grows by 64 bits and the sum is formed again
  (Ziv, ACM TOMS 1991).

The Euler constant is not hard-coded: it is defined as
-oracle_psi_asymptotic(1), keeping a single source of truth, and so is
the W-bit value of gamma rounded to nearest.  Bernoulli numbers are
exact, from integer tangent numbers (Brent & Harvey, 2011); the oracle
builds the table B_2 .. B_2K with one call.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from fractions import Fraction
from typing import Any, Callable

import mpmath
from mpmath import libmp

from . import _Record
from .closedform import MIN_DIGITS, UNIT, BasisTerm, ClosedForm, CosineCombination, _half_sum
from .rationals import PoleError, is_pole, shift_decompose, upward_sum

__all__ = [
    "EvalContext",
    "GUARD_DIGITS",
    "MIN_DIGITS",
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
_EXTRA_BITS = 32  # fixed-point bits beyond the working precision
_BLOCK = 64  # sines filled from one cos/sin evaluation by rotation
_DIRECT = 32  # ln sines below this slot come from libmp's log one by one
_SLOT_BUDGET = 1 << 16  # slots the value cache keeps, over all its entries
_SHIFT = 4  # the asymptotic oracle shifts its argument to x >= 4D
_ORACLE_EXTRA_BITS = 64  # the oracle's fixed-point bits beyond W, and its retry step
_bernoulli: list[Fraction] = []  # [B_2, B_4, ...]
_bernoulli_lock = threading.Lock()


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


class EvalContext(_Record):
    """Evaluation precision: D reported digits plus ``GUARD_DIGITS``."""

    __slots__ = ("digits",)
    _defaults = {"digits": 50}
    digits: int

    def _check(self) -> None:
        if isinstance(self.digits, bool) or not isinstance(self.digits, int):
            raise ValueError(f"EvalContext digits must be an int, got {self.digits!r}")
        if self.digits < MIN_DIGITS:
            raise ValueError(f"EvalContext requires digits >= {MIN_DIGITS}")

    @property
    def workdps(self) -> int:
        return self.digits + GUARD_DIGITS

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
    dps = ctx.workdps
    return ctx.mp.make_mpf(_values.get((dps, "pi"), lambda: (+_mp_for(dps).pi)._mpf_))


def const_gamma(ctx: EvalContext) -> BigReal:
    """The Euler constant, defined as -psi(1) via the asymptotic oracle, and
    so correctly rounded to the working precision."""
    value = _values.get(
        (ctx.workdps, "gamma"), lambda: (-oracle_psi_asymptotic(Fraction(1), ctx))._mpf_
    )
    return ctx.mp.make_mpf(value)


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


def _cos_sin_pi(j: int, q: int, prec: int) -> tuple[int, int]:
    """cos(pi*j/q) and sin(pi*j/q) as integers scaled by 2^prec, each within
    1.01 units."""
    x = libmp.from_rational(j, q, prec + 10)
    return tuple(libmp.to_fixed(v, prec) for v in libmp.mpf_cos_sin_pi(x, prec + 10))


class _SineTable:
    """cos(2*pi*j/q) and ln sin(pi*j/q), 0 <= j <= q/2, as integers scaled by
    2^prec, both formed from the sines sin(pi*j/q).

    The table's unit is a block of 64 consecutive j.  A block's sines are
    filled by :meth:`_fill`, and :meth:`_block` stores the cosines
    1 - 2 sin^2 and the logs formed from them together, the first time any
    slot of the block is read; the accessors read a stored block from the
    dict directly.  The block's first sine comes from libmp's cos/sin
    at an explicit precision, the rest from rotating it by pi/q in fixed
    point at prec + 16 bits.  Each rotation adds at most 3 units of
    2^-(prec+16) to the error, so a block ends within 3*64 of those units,
    whatever q is; rounded to prec bits each sine is within 0.51*2^-prec.

    ln sin(pi*j/q) is the log of the rounded sine, within q/(3j) units of
    2^-prec of the true one, since sin(pi*x) >= 2x on [0, 1/2].  For j < 32
    libmp's log gives it rounded down to prec bits (within 1 unit); slot 0
    is held as 0.  From j = 32 on, at w = prec + 16 bits, libmp's log gives
    the first log of a block (j = 32 in block 0), within 1.01 units of
    2^-w, and each next one follows from the one before as
    ln s_j = ln s_{j-1} + 2*atanh(u), u = (s_j - s_{j-1})/(s_j + s_{j-1}),
    from the rounded sines shifted left by 16 bits (:meth:`_chain`).  Each
    of the at most 63 steps adds less than 3.2 units of 2^-w, so the chain
    stays within 2^-8 units of 2^-prec, and rounded to prec bits a chained
    log is within (1/2 + 2^-8 + q/(3j))*2^-prec.  Every slot is thus
    within (1 + q/(3j))*2^-prec.

    No mpmath context is involved, so threads can share a table: a block
    two threads fill at once holds the same integers, and the first one
    stored is kept.
    """

    def __init__(self, q: int, prec: int) -> None:
        self.q, self.prec = q, prec
        self.slots = q // 2 + 1
        self._step = _cos_sin_pi(1, q, prec + 16)
        # block index -> (cosines, ln sines); memory grows with the blocks used
        self._blocks: dict[int, tuple[list[int], list[int]]] = {}

    def _block(self, b: int) -> tuple[list[int], list[int]]:
        prec = self.prec
        sines = self._fill(b)
        logs = [0, *(self._log(s, prec) for s in sines[1:_DIRECT])] if b == 0 else []
        if len(sines) > len(logs):
            logs += self._chain(sines[len(logs) :])
        one, half = 1 << prec, 1 << (prec - 2)
        cosines = [one - ((s * s + half) >> (prec - 1)) for s in sines]
        return self._blocks.setdefault(b, (cosines, logs))

    def _fill(self, b: int) -> list[int]:
        wide = self.prec + 16
        cd, sd = self._step
        j0 = b * _BLOCK
        c, s = _cos_sin_pi(j0, self.q, wide)
        wide_sines = [s]
        for _ in range(1, min(_BLOCK, self.slots - j0)):
            c, s = (c * cd - s * sd) >> wide, (s * cd + c * sd) >> wide
            wide_sines.append(s)
        return [(v + (1 << 15)) >> 16 for v in wide_sines]

    def cos2(self, k: int) -> int:
        """cos(2*pi*k/q) = 1 - 2 sin^2(pi*k/q), 0 <= k <= q/2, within 3*2^-prec."""
        b, i = divmod(k, _BLOCK)
        return (self._blocks.get(b) or self._block(b))[0][i]

    def _log(self, s: int, prec: int) -> int:
        """ln(s*2^-self.prec) scaled by 2^prec and rounded down, within
        1 + 2^-8 units: |ln s| < q, so libmp's relative error at
        prec + 8 + bitlen(q) bits is below 2^-(prec+8)."""
        x = libmp.from_man_exp(s, -self.prec)
        return libmp.to_fixed(libmp.mpf_log(x, prec + 8 + self.q.bit_length()), prec)

    def log_sin(self, j: int) -> int:
        b, i = divmod(j, _BLOCK)
        return (self._blocks.get(b) or self._block(b))[1][i]

    def _chain(self, sines: list[int]) -> list[int]:
        """ln of consecutive rounded sines of one block, from a slot j >= 32
        on: libmp's log gives the first, a chain of steps the rest.

        A step adds 2*atanh(u) = 2*u*h(u^2), h(t) = sum_{k<n} t^k/(2k + 1),
        in integers: x = u*2^w rounded down (u is a ratio of rounded sines,
        so scaling both by 2^16 changes nothing) and h by Horner's rule.
        With x < 2^(w-e) at every step of the block, n = ceil(w/(2e)) terms
        leave out less than 2^-w of h.  Term k's level of the rule carries
        p_k = w - 2(e-1)k bits, as the later powers of u^2 < 2^-2e scale it
        down, so each level shifts by w - 2(e-1) bits and its error, two
        roundings, reaches the next one damped by 2^(2(e-1))*u^2 < 1/4: h is
        within 3.12 units of 2^-w.  With x's rounding (2 units of 2*atanh)
        and the final product's (1 unit) a step is within 3.2 units.  Since
        u = tan(pi/(2q))/tan(pi*(2j-1)/(2q)) <= 1/(2j - 1), e >= 6.
        """
        wide = self.prec + 16
        value = self._log(sines[0], wide)
        logs = [(value + (1 << 15)) >> 16]
        xs = [((s - r) << wide) // (s + r) for r, s in zip(sines, sines[1:])]
        if not xs:
            return logs
        e = wide - max(xs).bit_length()
        n = -(-wide // (2 * e))
        drop = 2 * (e - 1)
        top, *rest = [(1 << (wide - drop * k)) // (2 * k + 1) for k in range(n - 1, -1, -1)]
        level, last, half = wide - drop, wide - 1, 1 << 15
        append = logs.append
        for x in xs:
            x2 = (x * x) >> wide
            h = top
            for c in rest:
                h = c + ((h * x2) >> level)
            value += (x * h) >> last
            append((value + half) >> 16)
        return logs


class _ValueCache:
    """Bounded, thread-safe LRU of the values evaluation reuses, all of them
    context-free, so threads share them:

    * the sine table of a common denominator q at P bits, keyed (P, q), of
      q//2 + 1 slots, which the table's ``slots`` holds;
    * pi, gamma, ln p and pi*cot(pi*m/q) as raw libmp values at the working
      precision, one slot each, keyed (workdps, "pi"), (workdps, "gamma"),
      (workdps, "logprime", p) and (workdps, "picot", m, q).

    A new entry evicts least-recently-used ones until the entries kept hold
    at most _SLOT_BUDGET slots; one larger than the budget is returned
    without being kept and evicts nothing.  A missing value is computed
    outside the lock (gamma at D = 3000 takes about 0.5 s); when two threads
    compute the same entry, the values are equal and the first one stored is
    kept.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[Any, int]] = OrderedDict()  # (value, slots)
        self.slots = 0
        self.misses = 0

    def get(self, key: tuple, compute: Callable[[], Any]) -> Any:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
        value = compute()
        slots = getattr(value, "slots", 1)
        with self._lock:
            self.misses += 1
            if slots <= _SLOT_BUDGET and key not in self._entries:
                self._entries[key] = (value, slots)
                self.slots += slots
                while self.slots > _SLOT_BUDGET:
                    self.slots -= self._entries.popitem(last=False)[1][1]
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.slots = 0


_values = _ValueCache()


def _basis_value(term: BasisTerm, dps: int) -> tuple:
    """The raw libmp value of ln p or pi*cot(pi*m/q) at ``dps`` digits."""
    m = _mp_for(dps)
    if term.kind == "logprime":
        p = term.arg
        return _values.get((dps, "logprime", p), lambda: m.log(p)._mpf_)
    n, d = term.arg
    return _values.get(
        (dps, "picot", n, d), lambda: (m.pi * m.cot(m.pi * (m.mpf(n) / d)))._mpf_
    )


def _scaled(x: int | Fraction, value: int) -> int:
    """x * value, rounded to an integer: exactly n * value when x = n/1."""
    n, d = x.numerator, x.denominator
    return n * value if d == 1 else (2 * n * value + d) // (2 * d)


def _fixed_sum(
    pairs: tuple[tuple[BasisTerm, CosineCombination], ...], ctx: EvalContext, half=None
) -> BigReal:
    """Sum of coefficient * basis value over the pairs and, if given, the
    theorem half sum of ``half`` = (p, q), in fixed point at P = W + 32 bits.

    The common denominator q is the lcm of each coefficient's denominator
    and each ln sin angle's, one lcm per pair, and the half sum's q.  Every
    cosine cos(2*pi*k/d) and every ln sin(pi*m/d) comes from the one table
    of q, at slot k*(q/d) and min(j, q - j) for j = m*(q/d), which lies in
    (0, q) because a stored angle has 0 < m < d; a half-sum term (j, k) adds
    2*cos2(k)*log_sin(j) as its record would (the pairs' denominators divide
    its q).  Each product is an exact integer scaled by 2^(2P), rounded once.
    """
    q = half[1] if half else 1
    for term, coeff in pairs:
        q = math.lcm(q, term.arg[1] if term.kind == "logsin" else 1, coeff.denominator)
    work = libmp.dps_to_prec(ctx.workdps)
    prec = work + _EXTRA_BITS
    one = 1 << prec
    if q > 1:
        table = _values.get((prec, q), lambda: _SineTable(q, prec))
        cos2, log_sin = table.cos2, table.log_sin
    total = 2 * sum(cos2(k) * log_sin(j) for j, k in _half_sum(*half)) if half else 0
    for term, coeff in pairs:
        c = _scaled(coeff.rational, one)
        lift = q // coeff.denominator
        for k, weight in coeff.cosines:
            c += _scaled(weight, cos2(k * lift))
        kind = term.kind
        if kind == "logsin":
            m, d = term.arg
            j = m * (q // d)
            basis = log_sin(q - j if 2 * j > q else j)
        elif kind == "unit":
            basis = one
        elif kind == "gamma":
            basis = libmp.to_fixed(const_gamma(ctx)._mpf_, prec)
        else:
            basis = libmp.to_fixed(_basis_value(term, ctx.workdps), prec)
        total += c * basis
    return ctx.mp.make_mpf(libmp.from_man_exp(total, -2 * prec, work, libmp.round_nearest))


def eval_cosine_combination(c: CosineCombination, ctx: EvalContext) -> BigReal:
    """The value of r + sum c_k cos(2*pi*k/q), rounded once to the working
    precision (see :func:`_fixed_sum`)."""
    return _fixed_sum(((UNIT, c),), ctx)


def eval_closed_form(c: ClosedForm, ctx: EvalContext) -> BigReal:
    """Sum of coefficient * basis-constant over all stored terms.

    Evaluated in fixed point at P = W + 32 bits with one rounding to the W
    working bits (module docstring), from the one sine table of the form's
    common denominator, which for the theorem forms of psi(p/q) is q; each
    cosine is read by its integer numerator (:func:`_fixed_sum`), and a
    theorem form's deferred half sum by its (j, k), its records unbuilt.
    The error before that rounding is at most sum |c|*e(basis) + |basis|*e(c)
    over the terms, with e the errors stated there (in units of 2^-P) and
    the W-bit rounding of pi, gamma, ln p and pi*cot.  For the theorem forms
    of denominator q it is about 3q + (2q/3)*H_{q/2} units from the table
    (H the harmonic numbers), below 2^-(W+8) up to q = 10^6 + 3; the 15
    guard digits keep the relative error below 10^-(D-5).
    """
    half = getattr(c, "_half", None)
    return _fixed_sum(half[0], ctx, half[1:]) if half else _fixed_sum(c.coefficients, ctx)


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
    if is_pole(r):
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


def _term_count(x: Fraction, prec: int) -> int | None:
    """The least K for which term K + 1 of the de Moivre expansion at x is
    at most 2^-(prec+1) by the bound 4(2k)!/((2pi)^(2k) 2k x^(2k)), from
    |B_2k| < 4(2k)!/(2pi)^(2k); None when the bound stops falling first
    (k > pi*x), so that the expansion at x cannot reach prec bits.  The
    bound is compared in float logs with a bit to spare."""
    log_x = math.log2(x.numerator) - math.log2(x.denominator)
    per_k = 2 * (math.log2(2 * math.pi) + log_x)
    previous = math.inf
    k = 1
    while True:
        bound = 2 + math.lgamma(2 * k + 1) / math.log(2) - k * per_k - math.log2(2 * k)
        if bound <= -prec - 1:
            return k - 1
        if bound >= previous:
            return None
        previous = bound
        k += 1


def _de_moivre(x: Fraction, count: int, prec: int) -> int:
    """ln x - 1/(2x) - sum_{k <= count} B_2k/(2k x^(2k)) at x >= 60, scaled
    by 2^prec.  Each part is rounded down on its own, within 1 unit (ln x:
    libmp's log of x at 20 bits beyond prec and the bits of
    |ln x| < bitlen(a), within 1 + 2^-18 units); term k is the integer
    quotient B_2k b^(2k) 2^prec / (2k a^(2k)) for x = a/b.  The table
    B_2 .. B_2count is built by one call of :func:`bernoulli_even`."""
    a, b = x.numerator, x.denominator
    wide = prec + 20 + a.bit_length().bit_length()
    total = libmp.to_fixed(libmp.mpf_log(libmp.from_rational(a, b, wide), wide), prec)
    total -= (b << prec) // (2 * a)
    if count:
        bernoulli_even(count)
        with _bernoulli_lock:
            numbers = _bernoulli[:count]
        a2, b2 = a * a, b * b
        up, down = 1, 1
        for k, number in enumerate(numbers, 1):
            up, down = up * b2, down * a2
            total -= (number.numerator * up << prec) // (number.denominator * 2 * k * down)
    return total


def _rounded(total: int, error: int, prec: int, work: int) -> tuple | None:
    """total*2^-prec rounded to nearest at work bits as a raw libmp value, or
    None when some value within error units of 2^-prec of it rounds
    differently (Ziv's test: rounding is monotonic, so the two ends decide)."""
    low, high = (
        libmp.from_man_exp(total + side * error, -prec, work, libmp.round_nearest)
        for side in (-1, 1)
    )
    return low if low == high else None


def oracle_psi_asymptotic(r: Fraction, ctx: EvalContext) -> BigReal:
    """Digamma via exact upward recurrence plus the de Moivre expansion,
    correctly rounded to the W working bits.

    The argument is shifted by exact rational steps to x >= 4D (the measured
    cheapest multiple of D), psi(r) = psi(x) - sum_{k<steps} 1/(r + k).  At
    x > 0 the remainder of ln x - 1/(2x) - sum_{k<=K} B_2k/(2k x^(2k)) lies
    below its first omitted term (DLMF 5.11(ii)), so K is fixed in advance
    from a bound on that term (:func:`_term_count`) and the table is built
    exactly K long.  The sum and the exact correction are formed in integer
    fixed point at P = W + 64 bits, each of the K + 3 parts rounded down,
    so with the truncation the result is within K + 5 units of 2^-P.  It is
    rounded once to W bits when that bound decides the rounding; otherwise
    (a value near a rounding boundary, or a tiny psi near its root at
    1.4616...) P grows by 64 bits and the sum is formed again (Ziv, ACM TOMS
    1991), and x is doubled whenever the expansion at x cannot reach P bits.
    """
    if is_pole(r):
        raise PoleError("digamma pole at non-positive integer")
    steps = max(0, math.ceil(_SHIFT * ctx.digits - r))
    correction = upward_sum(r, steps)
    x = r + steps
    work = libmp.dps_to_prec(ctx.workdps)
    prec = work
    while True:
        prec += _ORACLE_EXTRA_BITS
        count = _term_count(x, prec)
        while count is None:
            steps = math.ceil(x)
            correction += upward_sum(x, steps)
            x += steps
            count = _term_count(x, prec)
        total = _de_moivre(x, count, prec)
        total -= (correction.numerator << prec) // correction.denominator
        value = _rounded(total, count + 5, prec, work)
        if value is not None:
            return ctx.mp.make_mpf(value)


# ---------------------------------------------------------------------------
# Decimal text output
# ---------------------------------------------------------------------------


def format_decimal(x: BigReal, digits: int) -> str:
    """Exactly ``digits`` significant decimal digits (e-notation for extreme
    magnitudes); correctly rounded from the working-precision value."""
    if x == 0:
        return "0"
    return mpmath.nstr(x, digits, strip_zeros=False)
