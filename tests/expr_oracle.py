"""The hand-written tokenizer and recursive-descent parser, kept as an oracle.

This is the expression parser :mod:`mlerisk.expr` used before it handed the
grammar to Python's own parser and a whitelist walk of the tree.  It builds
one closure per node; the tests compare its closures and its refusals with
the library's compiled expressions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from mlerisk.expr import ExprSyntaxError

__all__ = ["compile_expression"]


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "erf": _sp.erf,
    "phi": lambda x: np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) / math.sqrt(2 * math.pi),
    "Phi": _sp.ndtr,
}

_CONSTANTS = {"pi": math.pi}


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    line: int
    column: int


def _tokenize(text: str, line: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = pos + (len(text[pos:]) - len(stripped)) + 1
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", line, col)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), line, m.start(kind) + 1))
        pos = m.end()
    tokens.append(_Token("end", "", line, len(text) + 1))
    return tokens


class _Parser:
    """Recursive-descent parser producing a closure over ``y``."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}", tok.line, tok.column)

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing token {tok.text!r}", tok.line, tok.column)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.term()
            node = (lambda f, g: (lambda y: f(y) + g(y)))(node, rhs) if op == "+" else (
                lambda f, g: (lambda y: f(y) - g(y))
            )(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            rhs = self.unary()
            node = (lambda f, g: (lambda y: f(y) * g(y)))(node, rhs) if op == "*" else (
                lambda f, g: (lambda y: f(y) / g(y))
            )(node, rhs)
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            inner = self.unary()
            return lambda y: -inner(y)
        if tok.kind == "op" and tok.text == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            # right-associative; exponent may itself carry a unary sign
            exponent = self.unary()
            return lambda y: base(y) ** exponent(y)
        return base

    def atom(self):
        tok = self.next()
        if tok.kind == "num":
            value = float(tok.text)
            return lambda y: value
        if tok.kind == "name":
            if tok.text == "y":
                return lambda y: y
            if tok.text in _CONSTANTS:
                value = _CONSTANTS[tok.text]
                return lambda y: value
            if tok.text in _FUNCTIONS:
                fn = _FUNCTIONS[tok.text]
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return lambda y: fn(arg(y))
            raise ExprSyntaxError(f"unknown name {tok.text!r}", tok.line, tok.column)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            "expected a number, name or parenthesised expression" if tok.kind != "end" else "unexpected end of expression",
            tok.line,
            tok.column,
        )


def compile_expression(text: str, line: int = 1):
    """Compile one expression into a callable of ``y`` (scalar or array)."""
    return _Parser(_tokenize(text, line)).parse()
