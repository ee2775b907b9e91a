"""Recursive-descent parser for the expression grammar.

Grammar (byte offsets reported on error)::

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

'^' binds tighter than unary minus, which binds tighter than '*' and '/';
'+' and '*' are left-associative, '^' is right-associative.  Decimal
literals are converted exactly to rationals.  Exponents must fold to a
rational constant.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExprSyntaxError
from .expr import FUNCTIONS, Expr, Rat, Sym, call, div, mul, neg, pow_, sub, add

_KNOWN_FUNCTIONS = set(FUNCTIONS) | {"sqrt"}


class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in "+-*/^()":
            toks.append(_Tok(c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            toks.append(_Tok("num", text[i:j], i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    toks.append(_Tok("end", "", n))
    return toks


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.peek()
        if t.kind != kind:
            raise ExprSyntaxError(f"expected {kind!r}", t.pos)
        return self.take()

    def parse(self):
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ExprSyntaxError(f"unexpected {t.text!r}", t.pos)
        return e

    def expr(self):
        e = self.term()
        while self.peek().kind in "+-":
            op = self.take().kind
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self):
        e = self.unary()
        while self.peek().kind in "*/":
            op = self.take()
            rhs = self.unary()
            try:
                e = mul(e, rhs) if op.kind == "*" else div(e, rhs)
            except ZeroDivisionError:
                raise ExprSyntaxError("division by zero", op.pos) from None
        return e

    def unary(self):
        if self.peek().kind == "-":
            self.take()
            return neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            t = self.take()
            exponent = self.unary()
            if not isinstance(exponent, Rat):
                raise ExprSyntaxError("exponent must be a rational constant", t.pos)
            try:
                return pow_(base, exponent.value)
            except ZeroDivisionError:
                raise ExprSyntaxError("zero raised to a negative power", t.pos) from None
        return base

    def atom(self):
        t = self.peek()
        if t.kind == "num":
            self.take()
            return Rat(_decimal_value(t.text))
        if t.kind == "ident":
            self.take()
            if self.peek().kind == "(":
                if t.text not in _KNOWN_FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {t.text!r}", t.pos)
                self.take()
                arg = self.expr()
                self.expect(")")
                return call(t.text, arg)
            return Sym(t.text)
        if t.kind == "(":
            self.take()
            e = self.expr()
            self.expect(")")
            return e
        raise ExprSyntaxError("expected an operand", t.pos)


def _decimal_value(text):
    """The literal's exact value; ``Rat`` stores an integral one as an int."""
    if "." not in text:
        return int(text)
    whole, frac = text.split(".")
    whole = whole or "0"
    return Fraction(int(whole) * 10 ** len(frac) + int(frac or "0"), 10 ** len(frac))


def parse_expr(text) -> Expr:
    """Parse text into an expression tree; raises ExprSyntaxError with offset."""
    return _Parser(text).parse()
