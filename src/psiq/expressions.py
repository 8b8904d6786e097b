"""Recursive-descent parser and evaluator for constant expressions.

Grammar (whitespace insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | number | 'pi' | 'gamma'
            | FUNC '(' expr ')' | '(' expr ')'
    number := digits

``FUNC`` is one of sqrt, ln, sin, cos, cot.  The bundled corpus files use
only sqrt and ln; sin/cos/cot exist so that rendered closed forms round-trip
through this parser.  '/' is left-associative; a number divided by a number
is folded into one exact rational, so ``3/4`` parses to ``Number(3/4)`` and
``pi/2/3`` to ``(pi / 2) / 3``.  A zero divisor in such a fold is a syntax
error.

Syntax errors carry the offending position; evaluation rejects sqrt/ln of a
non-positive value, a zero divisor and cot of an exact zero, naming the
offending subexpression.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from . import _Record
from .numerics import BigReal, EvalContext, const_gamma, const_pi

__all__ = [
    "BinOp",
    "Call",
    "ConstExpr",
    "ExprDomainError",
    "ExprSyntaxError",
    "Name",
    "Neg",
    "Number",
    "eval_const_expr",
    "expr_text",
    "parse_const_expr",
]

_FUNCTIONS = ("sqrt", "ln", "sin", "cos", "cot")
_CONSTANTS = ("pi", "gamma")


class ExprSyntaxError(ValueError):
    """Syntax error with the 0-based offset where parsing failed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprDomainError(ValueError):
    """Domain violation during evaluation, naming the offending subexpression."""


class Number(_Record):
    __slots__ = ("value",)
    value: Fraction


class Name(_Record):
    __slots__ = ("name",)
    name: str  # 'pi' or 'gamma'


class Neg(_Record):
    __slots__ = ("operand",)
    operand: "ConstExpr"


class BinOp(_Record):
    __slots__ = ("op", "left", "right")
    op: str  # '+', '-', '*', '/'
    left: "ConstExpr"
    right: "ConstExpr"


class Call(_Record):
    __slots__ = ("func", "arg")
    func: str
    arg: "ConstExpr"


ConstExpr = Union[Number, Name, Neg, BinOp, Call]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


class _Token(_Record):
    __slots__ = ("kind", "text", "position")
    kind: str  # 'number', 'name', 'op', 'end'
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            tokens.append(_Token("number", text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("name", text[start:i], start))
            continue
        if ch in "+-*/()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            self.advance()
            return
        raise ExprSyntaxError(f"expected {op!r}", tok.position)

    def parse(self) -> ConstExpr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.position)
        return node

    def expr(self) -> ConstExpr:
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                node = BinOp(tok.text, node, self.term())
            else:
                return node

    def term(self) -> ConstExpr:
        node = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                right = self.factor()
                if tok.text == "/" and isinstance(node, Number) and isinstance(right, Number):
                    if right.value == 0:
                        raise ExprSyntaxError("rational with zero denominator", tok.position)
                    node = Number(node.value / right.value)
                else:
                    node = BinOp(tok.text, node, right)
            else:
                return node

    def factor(self) -> ConstExpr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.factor())
        if tok.kind == "number":
            self.advance()
            return Number(Fraction(int(tok.text)))
        if tok.kind == "name":
            self.advance()
            if tok.text in _CONSTANTS:
                return Name(tok.text)
            if tok.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            raise ExprSyntaxError(f"unknown identifier {tok.text!r}", tok.position)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"expected a value, got {tok.text!r}" if tok.text else "unexpected end of input",
            tok.position,
        )


def parse_const_expr(text: str) -> ConstExpr:
    """Parse a constant expression; total over the grammar, error otherwise."""
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Rendering (for error messages) and evaluation
# ---------------------------------------------------------------------------


def expr_text(e: ConstExpr) -> str:
    if isinstance(e, Number):
        return str(e.value)
    if isinstance(e, Name):
        return e.name
    if isinstance(e, Neg):
        return f"-{expr_text(e.operand)}"
    if isinstance(e, BinOp):
        return f"({expr_text(e.left)} {e.op} {expr_text(e.right)})"
    if isinstance(e, Call):
        return f"{e.func}({expr_text(e.arg)})"
    raise TypeError(f"not a ConstExpr: {e!r}")


def eval_const_expr(e: ConstExpr, ctx: EvalContext) -> BigReal:
    """Evaluate to a working-precision value under the guard-digit contract."""
    m = ctx.mp
    if isinstance(e, Number):
        return ctx.from_fraction(e.value)
    if isinstance(e, Name):
        return const_pi(ctx) if e.name == "pi" else const_gamma(ctx)
    if isinstance(e, Neg):
        return -eval_const_expr(e.operand, ctx)
    if isinstance(e, BinOp):
        left = eval_const_expr(e.left, ctx)
        right = eval_const_expr(e.right, ctx)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if right == 0:
            raise ExprDomainError(f"division by zero in {expr_text(e)}")
        return left / right
    if isinstance(e, Call):
        arg = eval_const_expr(e.arg, ctx)
        if e.func == "sqrt":
            if arg <= 0:
                raise ExprDomainError(f"sqrt of non-positive value in {expr_text(e)}")
            return m.sqrt(arg)
        if e.func == "ln":
            if arg <= 0:
                raise ExprDomainError(f"ln of non-positive value in {expr_text(e)}")
            return m.log(arg)
        if e.func == "sin":
            return m.sin(arg)
        if e.func == "cos":
            return m.cos(arg)
        if e.func == "cot":
            if arg == 0:
                raise ExprDomainError(f"cot of zero in {expr_text(e)}")
            return m.cot(arg)
    raise TypeError(f"not a ConstExpr: {e!r}")
