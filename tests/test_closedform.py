import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psiq import (
    GAMMA,
    UNIT,
    ClosedForm,
    CosineCombination,
    EvalContext,
    eval_closed_form,
    log_prime,
    log_sin,
    pi_cot,
    psi_closed,
    render,
)
from psiq.closedform import BasisTerm, prime_exponents
from psiq.numerics import comparison_tolerance, eval_cosine_combination

from conftest import random_rationals

half = Fraction(1, 2)


def cc(value) -> CosineCombination:
    return CosineCombination.from_rational(Fraction(value))


# ---------------------------------------------------------------------------
# cosine combinations
# ---------------------------------------------------------------------------


class TestCosineCombination:
    def test_cos_zero_folds_to_rational(self):
        assert CosineCombination.from_cos(Fraction(0), 3) == cc(3)
        assert CosineCombination.from_cos(Fraction(1), 3) == cc(3)

    def test_cos_half_turn_is_minus_one(self):
        assert CosineCombination.from_cos(half, 3) == cc(-3)

    def test_cos_quarter_turn_vanishes(self):
        assert CosineCombination.from_cos(Fraction(1, 4), 5).is_zero
        assert CosineCombination.from_cos(Fraction(3, 4), 5).is_zero

    def test_unsorted_or_repeated_angles_rejected(self):
        # cos(2*pi*7/35) = cos(2*pi/5) and cos(2*pi*5/35) = cos(2*pi/7)
        with pytest.raises(ValueError, match="non-canonical cosine angle"):
            CosineCombination(Fraction(0), 35, ((7, 1), (5, 1)))
        with pytest.raises(ValueError, match="non-canonical cosine angle"):
            CosineCombination(Fraction(0), 35, ((5, 1), (5, 1)))

    @pytest.mark.parametrize(
        "q,cosines",
        [(7, ((4, 1),)), (8, ((4, 1),)), (7, ((0, 1),)), (7, ((-1, 1),)), (12, ((3, 1),))],
        ids=["2k>q", "2k=q", "k=0", "k<0", "4k=q"],
    )
    def test_numerators_outside_the_half_turn_rejected(self, q, cosines):
        with pytest.raises(ValueError, match="non-canonical cosine angle"):
            CosineCombination(Fraction(0), q, cosines)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError, match="zero cosine coefficient"):
            CosineCombination(Fraction(0), 7, ((1, 1), (2, 0)))

    @pytest.mark.parametrize(
        "q,cosines", [(6, ((2, 1),)), (10, ((2, 1), (4, 3))), (2, ()), (0, ())],
        ids=["6-(2,)", "10-(2,4)", "rational-over-2", "zero"],
    )
    def test_non_minimal_denominator_rejected(self, q, cosines):
        with pytest.raises(ValueError, match="non-minimal cosine denominator"):
            CosineCombination(Fraction(0), q, cosines)

    def test_from_cos_stores_the_reduced_angle(self):
        c = CosineCombination.from_cos(Fraction(-10, 12), 5)  # folds to 1/6
        assert (c.denominator, c.cosines) == (6, ((1, 5),))

    def test_addition_lifts_to_the_lcm_and_reduces(self):
        sixth = CosineCombination.from_cos(Fraction(1, 6))
        third = CosineCombination.from_cos(Fraction(1, 3))
        total = sixth + third
        assert (total.denominator, total.cosines) == (6, ((1, 1), (2, 1)))
        assert total == CosineCombination(Fraction(0), 6, ((1, 1), (2, 1)))
        cancelled = total + (-sixth)
        assert cancelled == third and cancelled.denominator == 3
        nothing = total + (-total)
        assert nothing.is_zero and nothing.denominator == 1
        assert nothing == CosineCombination()

    def test_reflection_fold(self):
        # cos(2*pi*(1-x)) = cos(2*pi*x)
        a = CosineCombination.from_cos(Fraction(4, 5), 1)
        b = CosineCombination.from_cos(Fraction(1, 5), 1)
        assert a == b

    def test_addition_cancels(self):
        a = CosineCombination.from_cos(Fraction(1, 3), 2)
        assert (a + (-a)).is_zero

    @settings(max_examples=40, deadline=None)
    @given(
        st.fractions(min_value=-10, max_value=10, max_denominator=10),
        st.lists(
            st.tuples(
                st.fractions(min_value=0, max_value=1, max_denominator=24),
                st.fractions(min_value=-10, max_value=10, max_denominator=10),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_evaluator_matches_direct_sum(self, rational, terms):
        # many angles over mixed denominators share one common-denominator table
        ctx = EvalContext(50)
        m = ctx.mp
        combination = cc(rational)
        direct = ctx.from_fraction(rational)
        for angle, coeff in terms:
            combination = combination + CosineCombination.from_cos(angle, coeff)
            direct += ctx.from_fraction(coeff) * m.cos(2 * m.pi * ctx.from_fraction(angle))
        value = eval_cosine_combination(combination, ctx)
        assert abs(value - direct) < comparison_tolerance(ctx)


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


class TestCanonicalize:
    def test_picot_reflection(self):
        form = ClosedForm.build({pi_cot(Fraction(2, 3)): cc(1)})
        expected = ClosedForm.build({pi_cot(Fraction(1, 3)): cc(-1)})
        assert form == expected

    def test_logsin_reflection(self):
        form = ClosedForm.build({log_sin(Fraction(2, 3)): cc(1)})
        expected = ClosedForm.build({log_sin(Fraction(1, 3)): cc(1)})
        assert form == expected

    def test_picot_half_deleted(self):
        assert ClosedForm.build({pi_cot(half): cc(7)}).is_zero

    def test_logsin_half_deleted(self):
        assert ClosedForm.build({log_sin(half): cc(7)}).is_zero

    def test_repeated_terms_merged(self):
        fifth = CosineCombination.from_cos(Fraction(1, 5))
        seventh = CosineCombination.from_cos(Fraction(1, 7))
        form = ClosedForm.build(
            [(log_sin(Fraction(1, 3)), fifth), (log_sin(Fraction(2, 3)), seventh)]
        )
        assert form.coefficients == ((log_sin(Fraction(1, 3)), fifth + seventh),)

    def test_zero_coefficients_dropped(self):
        form = ClosedForm.build({GAMMA: cc(0), UNIT: cc(2)})
        assert form == ClosedForm.build({UNIT: 2})

    def test_idempotent_on_random_forms(self):
        for r in random_rationals(25, seed=99):
            form = psi_closed(r)
            assert ClosedForm.build(form.coefficients) == form

    def test_value_preserving(self, ctx30):
        raw = ClosedForm.build(
            {
                pi_cot(Fraction(5, 7)): cc(Fraction(3, 2)),
                log_sin(Fraction(9, 11)): CosineCombination.from_cos(Fraction(13, 7), 2),
                GAMMA: cc(-1),
            }
        )
        assert equal_values(raw, ClosedForm.build(raw.coefficients), ctx30)

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            log_prime(6)
        with pytest.raises(ValueError):
            ClosedForm.build({BasisTerm("logprime", 9): cc(1)})

    @pytest.mark.parametrize("arg", [Fraction(7, 2), Fraction(7, 1), 7.0, True])
    def test_prime_must_be_an_int(self, arg):
        # accepted, 7/2 would evaluate as ln 3.5 and put a Fraction into a cache key
        with pytest.raises(ValueError, match="requires a prime"):
            log_prime(arg)
        with pytest.raises(ValueError, match="requires a prime"):
            ClosedForm.build({BasisTerm("logprime", arg): cc(1)})

    def test_integer_angles_rejected(self):
        with pytest.raises(ValueError):
            pi_cot(Fraction(2))
        with pytest.raises(ValueError):
            log_sin(Fraction(0))

    @pytest.mark.parametrize(
        "kind,arg",
        [
            ("logprime", 9),
            ("logsin", (2, 4)),
            ("logsin", (0, 3)),
            ("logsin", (3, 3)),
            ("logsin", (Fraction(1, 3), 1)),
            ("logsin", Fraction(1, 3)),
            ("picot", (4, 3)),
            ("picot", (-1, 3)),
            ("picot", (True, 3)),
            ("picot", [1, 3]),
            ("picot", (1, 3, 5)),
            ("unit", 1),
            ("sqrt", None),
        ],
    )
    def test_basis_term_checks_its_argument(self, kind, arg):
        with pytest.raises(ValueError):
            BasisTerm(kind, arg)

    def test_stored_arguments_are_ints(self):
        assert log_sin(Fraction(-10, 3)).arg == (2, 3)
        assert pi_cot(Fraction(7, 2)).arg == (1, 2)
        assert log_prime(7).arg == 7

    @pytest.mark.parametrize("angle", [0.1, 0.25, "1/4", True, None])
    def test_angles_must_be_exact_rationals(self, angle):
        with pytest.raises(ValueError):
            log_sin(angle)
        with pytest.raises(ValueError):
            pi_cot(angle)
        with pytest.raises(ValueError):
            CosineCombination.from_cos(angle)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ClosedForm.build({GAMMA: 0.1}),
            lambda: CosineCombination.from_cos(Fraction(1, 3), True),
            lambda: CosineCombination.from_rational(0.5),
        ],
        ids=["build-float", "from_cos-bool", "from_rational-float"],
    )
    def test_coefficients_must_be_exact_rationals(self, make):
        # accepted, a float 0.1 would render as (3602879701896397/36028797018963968)*gamma
        with pytest.raises(ValueError, match="a coefficient must be an int or a Fraction"):
            make()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=60).flatmap(
            lambda q: st.tuples(st.integers(min_value=1, max_value=q - 1), st.just(q))
        ),
        st.integers(min_value=-1000, max_value=1000),
        st.fractions(min_value=-10, max_value=10, max_denominator=10),
        st.fractions(min_value=0, max_value=1, max_denominator=24),
    )
    def test_angles_fold_by_periodicity_and_reflection(self, mq, n, rational, cos_angle):
        x = Fraction(*mq)  # reduced, 0 < x < 1
        c = cc(rational) + CosineCombination.from_cos(cos_angle, 3)
        assert ClosedForm.build({log_sin(x + n): c}) == ClosedForm.build({log_sin(1 - x): c})
        assert ClosedForm.build({pi_cot(x + n): c}) == ClosedForm.build({pi_cot(1 - x): -c})
        for kind in (log_sin, pi_cot):
            for term, _ in ClosedForm.build({kind(x + n): c}).coefficients:
                assert 0 < 2 * term.arg[0] < term.arg[1]

    def test_prime_exponents(self):
        assert prime_exponents(12) == {2: 2, 3: 1}
        assert prime_exponents(1) == {}
        assert prime_exponents(2 * 3001) == {2: 1, 3001: 1}
        assert prime_exponents(3001**2) == {3001: 2}


# ---------------------------------------------------------------------------
# sums of forms through ClosedForm.build
# ---------------------------------------------------------------------------


class TestCombine:
    def test_cancellation_gives_zero(self):
        x = psi_closed(Fraction(1, 3))
        negated = ((t, -c) for t, c in x.coefficients)
        assert ClosedForm.build((*x.coefficients, *negated)).is_zero

    def test_shift_identity_reproduces_negative_half(self):
        # psi(-1/2) = psi(1/2) + 2 via the unit-shift identity
        shifted = ClosedForm.build(((UNIT, 2), *psi_closed(half).coefficients))
        assert shifted == psi_closed(Fraction(-1, 2))

    def test_combine_merges_coefficients(self, ctx30):
        a = psi_closed(Fraction(1, 5))
        b = psi_closed(Fraction(2, 5))
        merged = ClosedForm.build((*a.coefficients, *b.coefficients))
        va = eval_closed_form(a, ctx30)
        vb = eval_closed_form(b, ctx30)
        vm = eval_closed_form(merged, ctx30)
        assert abs(vm - (va + vb)) < comparison_tolerance(ctx30)


# ---------------------------------------------------------------------------
# value equality / render
# ---------------------------------------------------------------------------


def equal_values(a, b, ctx):
    diff = eval_closed_form(a, ctx) - eval_closed_form(b, ctx)
    return abs(diff) < comparison_tolerance(ctx)


class TestEqualsNumeric:
    def test_cross_formula_equality(self, ctx50):
        from psiq import gauss_1813, murty_saradha

        assert equal_values(gauss_1813(1, 3), murty_saradha(1, 3), ctx50)

    def test_distinct_values_differ(self, ctx50):
        assert not equal_values(psi_closed(half), psi_closed(Fraction(1, 3)), ctx50)

    def test_canonicalization_preserves_value(self, ctx30):
        x = psi_closed(Fraction(-7, 3))
        assert equal_values(x, ClosedForm.build(x.coefficients), ctx30)


@pytest.fixture
def default_int_str_limit():
    """Python's default int->str limit; in-process CLI runs lift it for the
    whole session."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int->str digit limit")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(previous)


class TestRender:
    def test_psi_half_plain(self):
        assert render(psi_closed(half)) == "-gamma - 2*ln(2)"

    def test_zero_form(self):
        assert render(ClosedForm()) == "0"

    def test_psi_quarter_with_cotangent(self):
        assert render(psi_closed(Fraction(1, 4))) == "-gamma - (1/2)*pi*cot(pi*1/4) - 3*ln(2)"

    def test_deterministic_ordering(self):
        text = render(psi_closed(Fraction(7, 3)))
        assert text.startswith("15/4 - gamma")
        assert text.index("pi*cot") < text.index("ln(2)") < text.index("ln(3)")
        assert text.index("ln(3)") < text.index("ln(sin(")

    def test_latex_mentions_standard_symbols(self):
        text = render(psi_closed(Fraction(1, 4)), "latex")
        assert r"\gamma" in text and r"\cot" in text and r"\ln" in text

    def test_big_rational_under_default_int_str_limit(self, default_int_str_limit):
        form = psi_closed(Fraction(30001, 3))
        plain, latex = render(form), render(form, "latex")
        correction = dict(form.coefficients)[UNIT].rational
        sys.set_int_max_str_digits(0)
        try:
            num, den = str(correction.numerator), str(correction.denominator)
        finally:
            sys.set_int_max_str_digits(4300)
        assert len(num) > 4300
        assert plain.startswith(f"{num}/{den} - gamma - ")
        assert latex.startswith(rf"\frac{{{num}}}{{{den}}} - \gamma - ")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render(psi_closed(half), "html")

    def test_plain_round_trips_through_parser(self, ctx30):
        from psiq.expressions import eval_const_expr, parse_const_expr

        tol = comparison_tolerance(ctx30)
        for r in random_rationals(20, seed=71):
            form = psi_closed(r)
            reparsed = eval_const_expr(parse_const_expr(render(form)), ctx30)
            assert abs(reparsed - eval_closed_form(form, ctx30)) < tol
