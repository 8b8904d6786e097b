import hashlib
import math
import re
from fractions import Fraction

import pytest

from psiq import (
    GAMMA,
    UNIT,
    PoleError,
    ClosedForm,
    const_gamma,
    const_pi,
    eval_closed_form,
    gauss_1813,
    gr_variant,
    murty_saradha,
    nielsen,
    psi_closed,
    reflect,
    render,
)
from psiq.closedform import (
    CosineCombination,
    log_prime,
    log_sin,
    pi_cot,
    prime_exponents,
)
from psiq.numerics import comparison_tolerance
from psiq.rationals import shift_decompose

from conftest import random_rationals

half = Fraction(1, 2)


def cc(value):
    return CosineCombination.from_rational(Fraction(value))


def coprime_pairs(qmax):
    for q in range(2, qmax + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                yield p, q


# The four constructions accumulated term by term through CosineCombination
# addition, the reference for the linear-time builder in ``psiq.formulas``.
# Each term's summands are added pairwise, level by level, so the ln 2
# coefficient of the Gauss and Nielsen forms, about q/2 cosines, costs
# O(q log q) additions' work rather than O(q^2).

def _add(acc, term, coeff):
    acc.setdefault(term, []).append(coeff)


def _freeze(acc):
    sums = {}
    for term, parts in acc.items():
        while len(parts) > 1:
            pairs = [a + b for a, b in zip(parts[::2], parts[1::2])]
            parts = pairs + parts[2 * len(pairs) :]
        sums[term] = parts[0]
    return ClosedForm.build(sums)


def _reference_head(log_arg, p, q):
    acc = {GAMMA: [CosineCombination.from_rational(-1)]}
    for prime, exponent in prime_exponents(log_arg).items():
        _add(acc, log_prime(prime), CosineCombination.from_rational(-exponent))
    _add(acc, pi_cot(Fraction(p, q)), CosineCombination.from_rational(Fraction(-1, 2)))
    return acc


def reference_murty_saradha(p, q, upper=None):
    acc = _reference_head(2 * q, p, q)
    for j in range(1, (q // 2 if upper is None else upper) + 1):
        _add(acc, log_sin(Fraction(j, q)), CosineCombination.from_cos(Fraction(p * j, q), 2))
    return _freeze(acc)


def reference_gr_variant(p, q):
    return reference_murty_saradha(p, q, upper=(q + 1) // 2 - 1)


def reference_gauss_1813(p, q):
    acc = _reference_head(q, p, q)
    for j in range(1, q // 2 + 1):
        # the primed sum halves the j = q/2 term
        doubled = CosineCombination.from_cos(Fraction(p * j, q), 1 if 2 * j == q else 2)
        _add(acc, log_prime(2), doubled)
        _add(acc, log_sin(Fraction(j, q)), doubled)
    return _freeze(acc)


def reference_nielsen(p, q):
    acc = _reference_head(q, p, q)
    for j in range(1, q):
        coeff = CosineCombination.from_cos(Fraction(p * j, q), 1)
        _add(acc, log_prime(2), coeff)
        _add(acc, log_sin(Fraction(j, q)), coeff)
    return _freeze(acc)


REFERENCES = [
    (murty_saradha, reference_murty_saradha),
    (gauss_1813, reference_gauss_1813),
    (nielsen, reference_nielsen),
    (gr_variant, reference_gr_variant),
]


def _first_difference(form, expected):
    """The first term at which two unequal forms differ, in one short line."""
    for (term, coeff), (other, want) in zip(form.coefficients, expected.coefficients):
        if term != other:
            return f"term {term} where {other} is expected"
        if coeff != want:
            return f"the coefficient of {term}"
    return f"{len(form.coefficients)} terms where {len(expected.coefficients)} are expected"


def assert_same_form(label, form, expected, *formats):
    """form == expected, and their renders in ``formats`` equal.  A mismatch
    fails with one short line: pytest's report of a failed assert on forms or
    renders of about 1,400 terms runs to hundreds of kilobytes, and its diff
    of two such strings can take minutes."""
    if form != expected:
        pytest.fail(f"{label}: {_first_difference(form, expected)}")
    for fmt in formats:
        if render(form, fmt) != render(expected, fmt):
            pytest.fail(f"{label}: the {fmt} renders differ")


@pytest.fixture(scope="module")
def tol50(ctx50):
    return comparison_tolerance(ctx50)


# The replacement calls for the removed ``psi_complement`` and
# ``psi_negative_unit``, named after them so their cases keep their names.

def psi_complement(p, q):
    return psi_closed(Fraction(q - p, q))


def psi_negative_unit(p, q):
    return psi_closed(Fraction(-p, q))


class TestPreconditions:
    @pytest.mark.parametrize("fn", [murty_saradha, gauss_1813, nielsen, gr_variant,
                                    psi_complement, psi_negative_unit])
    @pytest.mark.parametrize("p,q", [(2, 4), (0, 3), (3, 3), (4, 3), (1, 1), (-1, 3)])
    def test_bad_pairs_rejected(self, fn, p, q):
        if fn in (psi_complement, psi_negative_unit):
            # psi_closed reduces any p/q and rejects only the poles 0, -1, -2, ...
            x = Fraction(p, q)
            r = 1 - x if fn is psi_complement else -x
            if r.denominator == 1 and r <= 0:
                with pytest.raises(PoleError):
                    fn(p, q)
            elif x.denominator == 1:
                assert fn(p, q) == ClosedForm.build({GAMMA: cc(-1)})  # psi(1 - 0)
            elif fn is psi_complement:
                assert fn(p, q) == reflect(psi_closed(x), x)
            else:
                shifted = ((UNIT, 1 / x), *psi_closed(1 - x).coefficients)
                assert fn(p, q) == ClosedForm.build(shifted)
            return
        with pytest.raises(ValueError):
            fn(p, q)

    @pytest.mark.parametrize("fn", [murty_saradha, gauss_1813, nielsen, gr_variant])
    @pytest.mark.parametrize("p,q", [(True, 3), (1, True), (False, 3), (2, 3.0), (Fraction(1), 3)])
    def test_non_int_pairs_rejected_naming_the_value(self, fn, p, q):
        # a bool is an int to isinstance, but True/3 is not an argument
        with pytest.raises(ValueError, match=re.escape(f"p={p!r}, q={q!r}")):
            fn(p, q)


class TestBuilderMatchesReference:
    def test_every_reduced_pair_to_q60(self):
        for p, q in coprime_pairs(60):
            references = {}
            for fn, reference in REFERENCES:
                expected = reference(p, q)
                assert_same_form(f"{fn.__name__}({p}, {q})", fn(p, q), expected, "plain")
                references[reference] = expected
            # the two identities the half-sum builder relies on, proved
            # through the term-by-term references rather than the builder
            assert references[reference_gauss_1813] == references[reference_nielsen], (p, q)
            assert references[reference_gr_variant] == references[reference_murty_saradha], (p, q)

    def test_direct_freeze_is_canonical(self):
        # the builder freezes without ClosedForm.build, which must leave its forms alone
        for p, q in coprime_pairs(60):
            for fn, _ in REFERENCES:
                form = fn(p, q)
                rebuilt = ClosedForm.build(form.coefficients)
                assert rebuilt == form and repr(rebuilt) == repr(form), (fn.__name__, p, q)

    def test_dispatcher_freeze_is_canonical(self):
        # psi_closed puts the unit term before a frozen base form without
        # ClosedForm.build, for shifts down and up and for the base 1
        arguments = [Fraction(p, q) + n for p, q in coprime_pairs(60) for n in (-2, 3)]
        for r in [*arguments, Fraction(1), Fraction(4)]:
            form = psi_closed(r)
            rebuilt = ClosedForm.build(form.coefficients)
            assert rebuilt == form and repr(rebuilt) == repr(form), r

    # sha256 of the plain and LaTeX renders of all four constructions at
    # p = 1, 7, q - 1, as the Fraction-angle representation printed them
    LARGE_RENDER_DIGESTS = {
        2999: "7c14a05481c6e745f91486c6136fd67ab424ab150bc4de27165e54a6bc941868",
        3000: "ae1903b9bb696823ac2e3e5021e9c384b3427fe42937b6dbf631a74fa4299464",
        3001: "96284c904c4d2c831beda9778e8eb83fbb4d0dc7055d24d5a3e9ed4fe6b1eae6",
    }

    @pytest.mark.parametrize("q", [2999, 3000, 3001])
    def test_large_prime_denominators(self, q):
        # the Gauss and Nielsen references take about 0.5 s per p at q = 3000,
        # so here those two are held to the recorded renders only; the
        # composite-q test below compares them with their references
        pairs = [(murty_saradha, reference_murty_saradha), (gr_variant, reference_gr_variant)]
        for p in (1, 2, 7, 1000, q // 2, q - 1):
            if math.gcd(p, q) != 1:
                continue
            for fn, reference in pairs:
                label = f"{fn.__name__}({p}, {q})"
                assert_same_form(label, fn(p, q), reference(p, q), "plain", "latex")
        digest = hashlib.sha256()
        for fn, _ in REFERENCES:
            for p in (1, 7, q - 1):
                form = fn(p, q)
                digest.update(f"{render(form)}\n{render(form, 'latex')}\n".encode())
        assert digest.hexdigest() == self.LARGE_RENDER_DIGESTS[q]

    @pytest.mark.parametrize("q", [2048, 2310, 3150])
    def test_large_composite_denominators(self, q):
        # repeated primes in ln 2q (2^12, 2^2*3*5*7*11, 2^2*3^2*5^2*7), ln sin
        # angles j/q reduced by gcd(j, q) > 1, and the quarter turn 4k = q
        # at q = 2048; p = 7 shares a factor with 2310 and 3150, so the least
        # p >= 7 coprime to q stands in, as one near q/2 does
        p7, middle = (next(p for p in range(lo, q) if math.gcd(p, q) == 1) for lo in (7, q // 2))
        for p in (1, p7, middle, q - 1):
            for fn, reference in REFERENCES:
                assert_same_form(f"{fn.__name__}({p}, {q})", fn(p, q), reference(p, q), "plain")


class TestMurtySaradha:
    def test_one_half_structure(self):
        expected = ClosedForm.build({GAMMA: cc(-1), log_prime(2): cc(-2)})
        assert murty_saradha(1, 2) == expected

    def test_one_quarter_structure(self):
        expected = ClosedForm.build(
            {GAMMA: cc(-1), pi_cot(Fraction(1, 4)): cc(Fraction(-1, 2)),
             log_prime(2): cc(-3)}
        )
        assert murty_saradha(1, 4) == expected

    def test_one_third_structure_and_value(self, ctx50, tol50):
        expected = ClosedForm.build(
            {
                GAMMA: cc(-1),
                pi_cot(Fraction(1, 3)): cc(Fraction(-1, 2)),
                log_prime(2): cc(-1),
                log_prime(3): cc(-1),
                log_sin(Fraction(1, 3)): CosineCombination.from_cos(Fraction(1, 3), 2),
            }
        )
        assert murty_saradha(1, 3) == expected
        m = ctx50.mp
        reference = -const_gamma(ctx50) - m.sqrt(3) * const_pi(ctx50) / 6 - m.mpf(3) / 2 * m.log(3)
        assert abs(eval_closed_form(murty_saradha(1, 3), ctx50) - reference) < tol50

    def test_even_q_drops_exact_zero_summand(self):
        # no ln sin(pi/2) term may survive for any even q
        for q in (2, 4, 6, 8, 10, 12):
            for p in range(1, q):
                if math.gcd(p, q) != 1:
                    continue
                form = murty_saradha(p, q)
                stored = [t.arg for t, _ in form.coefficients if t.kind == "logsin"]
                assert (1, 2) not in stored


class TestGauss:
    def test_one_half_halving_rule(self):
        # j = q/2 term is halved, contributing cos(pi) * ln 4 / 2 = -ln 2
        assert gauss_1813(1, 2) == murty_saradha(1, 2)

    def test_one_third_agrees_with_base_form(self, ctx50, tol50):
        diff = abs(
            eval_closed_form(gauss_1813(1, 3), ctx50)
            - eval_closed_form(murty_saradha(1, 3), ctx50)
        )
        assert diff < ctx50.mp.mpf(10) ** -40

    def test_three_quarters_value(self, ctx50, tol50):
        m = ctx50.mp
        reference = -const_gamma(ctx50) + const_pi(ctx50) / 2 - 3 * m.log(2)
        assert abs(eval_closed_form(gauss_1813(3, 4), ctx50) - reference) < tol50


class TestNielsen:
    def test_one_half(self):
        assert nielsen(1, 2) == murty_saradha(1, 2)

    def test_two_thirds_value(self, ctx50, tol50):
        m = ctx50.mp
        reference = (
            -const_gamma(ctx50) + m.sqrt(3) * const_pi(ctx50) / 6 - m.mpf(3) / 2 * m.log(3)
        )
        assert abs(eval_closed_form(nielsen(2, 3), ctx50) - reference) < tol50

    def test_one_fifth_agrees_with_base_form(self, ctx50):
        diff = abs(
            eval_closed_form(nielsen(1, 5), ctx50)
            - eval_closed_form(murty_saradha(1, 5), ctx50)
        )
        assert diff < ctx50.mp.mpf(10) ** -40


class TestGrVariant:
    def test_empty_sum_for_q_two(self):
        assert gr_variant(1, 2) == ClosedForm.build({GAMMA: cc(-1), log_prime(2): cc(-2)})

    def test_odd_q_identical_to_base_form(self):
        assert gr_variant(1, 3) == murty_saradha(1, 3)
        assert gr_variant(2, 5) == murty_saradha(2, 5)

    def test_even_q_differs_only_by_exact_zero(self, ctx50):
        # the dropped j = q/2 summand multiplies ln sin(pi/2) = 0, so the
        # canonical forms coincide
        assert gr_variant(1, 4) == murty_saradha(1, 4)
        diff = abs(
            eval_closed_form(gr_variant(1, 4), ctx50)
            - eval_closed_form(murty_saradha(1, 4), ctx50)
        )
        assert diff == 0


class TestProducedFormInvariants:
    def test_gamma_and_cot_coefficients_stay_rational(self):
        for r in random_rationals(40, seed=5150):
            for term, coeff in psi_closed(r).coefficients:
                if term.kind in ("gamma", "picot"):
                    assert coeff.is_rational, (r, term)

    def test_stored_angles_are_canonical(self):
        for p, q in coprime_pairs(14):
            for fn in (gauss_1813, nielsen, murty_saradha, gr_variant):
                for term, coeff in fn(p, q).coefficients:
                    if term.kind in ("picot", "logsin"):
                        m, d = term.arg
                        assert type(m) is int and type(d) is int and math.gcd(m, d) == 1
                        assert 0 < 2 * m < d  # the exact zeros at 1/2 are deleted
                    for k, value in coeff.cosines:
                        angle = Fraction(k, coeff.denominator)
                        assert 0 < angle < half and angle != Fraction(1, 4)
                        assert value != 0


class TestCrossFormulaSweep:
    def test_pairwise_agreement_up_to_q16(self, ctx50):
        limit = ctx50.mp.mpf(10) ** -40
        for p, q in coprime_pairs(16):
            values = [
                eval_closed_form(fn(p, q), ctx50)
                for fn in (gauss_1813, nielsen, murty_saradha)
            ]
            for i in range(3):
                for j in range(i + 1, 3):
                    assert abs(values[i] - values[j]) < limit, (p, q)


class TestDispatcher:
    def test_seven_thirds(self, ctx50, tol50):
        m = ctx50.mp
        reference = (
            -const_gamma(ctx50)
            + m.mpf(15) / 4
            - const_pi(ctx50) * m.sqrt(3) / 6
            - m.mpf(3) / 2 * m.log(3)
        )
        assert abs(eval_closed_form(psi_closed(Fraction(7, 3)), ctx50) - reference) < tol50

    def test_negative_half(self, ctx50, tol50):
        m = ctx50.mp
        reference = -const_gamma(ctx50) + 2 - 2 * m.log(2)
        assert abs(eval_closed_form(psi_closed(Fraction(-1, 2)), ctx50) - reference) < tol50

    def test_one_is_minus_gamma(self, ctx50):
        form = psi_closed(Fraction(1))
        assert form == ClosedForm.build({GAMMA: cc(-1)})
        assert abs(eval_closed_form(form, ctx50) + const_gamma(ctx50)) == 0

    def test_pole_message(self):
        with pytest.raises(PoleError, match="digamma pole at non-positive integer"):
            psi_closed(Fraction(-3))

    def test_shifted_form_equals_recanonicalized_sum(self):
        # psi(base + n) is the base form plus the exact correction as a unit term
        shifts = (-50, -7, -1, 1, 2, 50)
        cases = [
            (Fraction(p, q) + shifts[i % len(shifts)], murty_saradha(p, q))
            for i, (p, q) in enumerate(coprime_pairs(39))
        ]
        gamma_only = ClosedForm.build({GAMMA: cc(-1)})
        cases += [(Fraction(n), gamma_only) for n in (2, 3, 50)]
        for r, base_form in cases:
            correction = shift_decompose(r).correction
            shifted = ((UNIT, correction), *base_form.coefficients)
            assert psi_closed(r) == ClosedForm.build(shifted), r

    def test_recurrence_invariant(self, ctx50):
        # psi(r+1) - psi(r) = 1/r for 200 random non-pole rationals
        limit = comparison_tolerance(ctx50)
        for r in random_rationals(200, max_abs=20, seed=31415):
            lhs = eval_closed_form(psi_closed(r + 1), ctx50) - eval_closed_form(
                psi_closed(r), ctx50
            )
            assert abs(lhs - ctx50.from_fraction(Fraction(1, 1) / r)) < limit, r


class TestComplementAndNegative:
    def test_complement_examples(self, ctx50, tol50):
        # psi((q - p)/q) for p/q = 1/3 and 3/8
        m = ctx50.mp
        reference = (
            -const_gamma(ctx50) + m.sqrt(3) * const_pi(ctx50) / 6 - m.mpf(3) / 2 * m.log(3)
        )
        assert abs(eval_closed_form(psi_closed(Fraction(2, 3)), ctx50) - reference) < tol50
        ref58 = (
            -const_gamma(ctx50)
            + (m.sqrt(2) - 1) * const_pi(ctx50) / 2
            - 4 * m.log(2)
            + m.sqrt(2) * m.log(1 + m.sqrt(2))
        )
        assert abs(eval_closed_form(psi_closed(Fraction(5, 8)), ctx50) - ref58) < tol50

    def test_negative_unit_examples(self, ctx50, tol50):
        m = ctx50.mp
        ref_half = 2 - const_gamma(ctx50) - 2 * m.log(2)
        assert abs(eval_closed_form(psi_closed(Fraction(-1, 2)), ctx50) - ref_half) < tol50
        ref_23 = (
            -const_gamma(ctx50)
            + m.mpf(3) / 2
            - const_pi(ctx50) * m.sqrt(3) / 6
            - m.mpf(3) / 2 * m.log(3)
        )
        assert abs(eval_closed_form(psi_closed(Fraction(-2, 3)), ctx50) - ref_23) < tol50
        ref_34 = (
            -const_gamma(ctx50) + m.mpf(4) / 3 - const_pi(ctx50) / 2 - 3 * m.log(2)
        )
        assert abs(eval_closed_form(psi_closed(Fraction(-3, 4)), ctx50) - ref_34) < tol50

    def test_specializations_match_dispatcher_structurally(self):
        # psi(1 - x) = psi(x) + pi cot(pi x) and psi(-x) = psi(1 - x) + 1/x
        for p, q in coprime_pairs(40):
            x = Fraction(p, q)
            complement = psi_closed(1 - x)
            assert complement == reflect(psi_closed(x), x), (p, q)
            negative = ClosedForm.build(((UNIT, Fraction(q, p)), *complement.coefficients))
            assert psi_closed(-x) == negative, (p, q)


class TestReflect:
    def test_one_third(self, ctx50):
        m = ctx50.mp
        reflected = reflect(psi_closed(Fraction(1, 3)), Fraction(1, 3))
        assert reflected == psi_closed(Fraction(2, 3))
        diff = eval_closed_form(reflected, ctx50) - eval_closed_form(
            psi_closed(Fraction(1, 3)), ctx50
        )
        assert abs(diff - const_pi(ctx50) * m.sqrt(3) / 3) < comparison_tolerance(ctx50)

    def test_half_is_fixed_point(self):
        form = psi_closed(half)
        assert reflect(form, half) == form

    def test_quarter_shifts_by_pi(self, ctx50):
        reflected = reflect(psi_closed(Fraction(1, 4)), Fraction(1, 4))
        assert reflected == psi_closed(Fraction(3, 4))
        diff = eval_closed_form(reflected, ctx50) - eval_closed_form(
            psi_closed(Fraction(1, 4)), ctx50
        )
        assert abs(diff - const_pi(ctx50)) < comparison_tolerance(ctx50)

    def test_pole_cases_rejected(self):
        with pytest.raises(PoleError):
            reflect(psi_closed(Fraction(2)), Fraction(2))  # 1 - 2 = -1 is a pole

    def test_reflection_invariant_numerically(self, ctx50):
        limit = comparison_tolerance(ctx50)
        m = ctx50.mp
        for r in random_rationals(60, seed=2718):
            if r.denominator == 1:
                continue  # 1 - r would hit a pole for positive integers
            lhs = eval_closed_form(psi_closed(1 - r), ctx50)
            rhs = eval_closed_form(psi_closed(r), ctx50) + const_pi(ctx50) * m.cot(
                const_pi(ctx50) * ctx50.from_fraction(r)
            )
            assert abs(lhs - rhs) < limit, r

    def test_negation_invariant_numerically(self, ctx50):
        # psi(-r) = psi(r) + 1/r + pi cot(pi r) for non-integer r
        limit = comparison_tolerance(ctx50)
        m = ctx50.mp
        for r in random_rationals(60, seed=1618):
            if r.denominator == 1:
                continue
            lhs = eval_closed_form(psi_closed(-r), ctx50)
            rhs = (
                eval_closed_form(psi_closed(r), ctx50)
                + ctx50.from_fraction(Fraction(1, 1) / r)
                + const_pi(ctx50) * m.cot(const_pi(ctx50) * ctx50.from_fraction(r))
            )
            assert abs(lhs - rhs) < limit, r
