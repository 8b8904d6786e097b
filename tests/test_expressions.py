from fractions import Fraction

import pytest

from psiq.expressions import (
    BinOp,
    Call,
    ExprDomainError,
    ExprSyntaxError,
    Name,
    Neg,
    Number,
    eval_const_expr,
    expr_text,
    parse_const_expr,
)
from psiq.numerics import EvalContext, const_gamma, const_pi

from conftest import mp_reference


@pytest.fixture(scope="module")
def ctx():
    return EvalContext(30)


class TestParsing:
    def test_table_style_expression(self):
        tree = parse_const_expr("-gamma - 2*ln(2)")
        assert tree == BinOp(
            "-", Neg(Name("gamma")), BinOp("*", Number(Fraction(2)), Call("ln", Number(Fraction(2))))
        )

    def test_nested_radical(self):
        tree = parse_const_expr("sqrt(10-2*sqrt(5))")
        assert tree == Call(
            "sqrt",
            BinOp(
                "-",
                Number(Fraction(10)),
                BinOp("*", Number(Fraction(2)), Call("sqrt", Number(Fraction(5)))),
            ),
        )

    def test_rational_literal_is_exact(self):
        assert parse_const_expr("3/4") == Number(Fraction(3, 4))

    def test_decimal_digits_of_any_script(self):
        # int() reads every character that str.isdecimal() admits
        assert parse_const_expr("١+1") == BinOp("+", Number(Fraction(1)), Number(Fraction(1)))

    def test_slash_before_non_digit_is_division(self):
        tree = parse_const_expr("2/sqrt(2)")
        assert tree == BinOp("/", Number(Fraction(2)), Call("sqrt", Number(Fraction(2))))

    def test_spaced_slash_is_division_with_same_value(self, ctx):
        spaced = eval_const_expr(parse_const_expr("3 / 4"), ctx)
        literal = eval_const_expr(parse_const_expr("3/4"), ctx)
        assert spaced == literal

    def test_zero_denominator_literal_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_const_expr("3/0")

    @pytest.mark.parametrize(
        "text,position",
        [("2 + @", 4), ("2 +", 3), ("(1+2", 4), ("ln 2", 3), ("1 2", 2), ("2²", 1)],
    )
    def test_error_positions(self, text, position):
        with pytest.raises(ExprSyntaxError) as info:
            parse_const_expr(text)
        assert info.value.position == position

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier"):
            parse_const_expr("2*foo(3)")

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_const_expr("   ")


class TestEvaluation:
    def test_precedence_and_associativity(self, ctx):
        cases = {
            "2+3*4": 14,
            "2-3-4": -5,
            "8/4/2": 1,
            "(1+2)*3": 9,
            "-2*3": -6,
            "--2": 2,
            "1/2*pi": None,  # checked separately below
        }
        for text, expected in cases.items():
            if expected is None:
                continue
            assert eval_const_expr(parse_const_expr(text), ctx) == expected
        half_pi = eval_const_expr(parse_const_expr("1/2*pi"), ctx)
        assert abs(half_pi - const_pi(ctx) / 2) == 0
        # a number after '/' divides what precedes it, not only its digits
        pi, ln2 = const_pi(ctx), ctx.mp.log(2)
        divided = {
            "12/3/2": 2,
            "pi/2/3": pi / 2 / 3,
            "2*pi/3/4": 2 * pi / 3 / 4,
            "ln(2)/3/4": ln2 / 3 / 4,
        }
        for text, expected in divided.items():
            assert eval_const_expr(parse_const_expr(text), ctx) == expected, text

    def test_rational_literal_value(self, ctx):
        assert eval_const_expr(parse_const_expr("3/4"), ctx) == 0.75

    def test_constants(self, ctx):
        assert eval_const_expr(parse_const_expr("pi"), ctx) == const_pi(ctx)
        assert eval_const_expr(parse_const_expr("gamma"), ctx) == const_gamma(ctx)

    def test_table_row_value(self, ctx):
        # -gamma - 2 ln 2, checked against independent constants
        value = eval_const_expr(parse_const_expr("-gamma - 2*ln(2)"), ctx)
        m = mp_reference(60)
        reference = -(m.euler + 2 * m.log(2))
        assert abs(value - reference) < ctx.mp.mpf(10) ** -28

    def test_ln_zero_parses_then_fails_domain(self, ctx):
        tree = parse_const_expr("ln(0)")
        with pytest.raises(ExprDomainError, match="ln of non-positive"):
            eval_const_expr(tree, ctx)

    def test_sqrt_of_negative_fails_with_subexpression(self, ctx):
        tree = parse_const_expr("1 + sqrt(2-3)")
        with pytest.raises(ExprDomainError, match=r"sqrt of non-positive value in sqrt\("):
            eval_const_expr(tree, ctx)

    def test_division_by_zero(self, ctx):
        with pytest.raises(ExprDomainError, match="division by zero"):
            eval_const_expr(parse_const_expr("1/(2-2)"), ctx)

    @pytest.mark.parametrize("text", ["cot(0)", "pi*cot(2-2)", "cot(pi*0)"])
    def test_cot_of_zero_fails_domain(self, ctx, text):
        with pytest.raises(ExprDomainError, match=r"cot of zero in cot\("):
            eval_const_expr(parse_const_expr(text), ctx)

    def test_trigonometric_extension(self, ctx):
        m = ctx.mp
        cot = eval_const_expr(parse_const_expr("pi*cot(pi*1/4)"), ctx)
        assert abs(cot - const_pi(ctx)) < m.mpf(10) ** -25
        cos = eval_const_expr(parse_const_expr("cos(2*pi*1/3)"), ctx)
        assert abs(cos + m.mpf(1) / 2) < m.mpf(10) ** -25
        sin = eval_const_expr(parse_const_expr("ln(sin(pi*1/2))"), ctx)
        assert abs(sin) < m.mpf(10) ** -25


class TestExprText:
    def test_round_trip_readability(self):
        tree = parse_const_expr("-gamma - 2*ln(2)")
        assert expr_text(tree) == "(-gamma - (2 * ln(2)))"
