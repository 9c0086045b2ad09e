"""The value-literal scanner, kept as the reference for the tests.

`linlog.sexpr.parse_value_literal` reads by index the tokens of one
compiled pattern.  This is the scanner it replaced: a `_ValueLexer`
that skips whitespace and matches one character or one rational at its
cursor, and a recursive `_coords` over it.  The tests check that both
give the same `CoordsLit`, or the same ValueError message.
"""

from __future__ import annotations

import re
from fractions import Fraction

from linlog.sexpr import CoordsLit, parse_rational

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


class _ValueLexer:
    """Scanner for the value literals of the command line: coordinate
    lists ``[1/2, 3]`` and matrices ``[[..],[..]]``."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ValueError(
                f"expected {ch!r} at offset {self.pos} in value literal {self.text!r}"
            )
        self.pos += 1

    def rational(self) -> Fraction:
        self.skip_ws()
        m = _RATIONAL_RE.match(self.text, self.pos)
        if m is None:
            raise ValueError(
                f"expected a rational at offset {self.pos} in value literal {self.text!r}"
            )
        self.pos = m.end()
        return parse_rational(m.group())


def parse_value_literal(text: str) -> CoordsLit:
    """A vector or matrix literal; anything else is a ValueError."""
    lexer = _ValueLexer(text)
    out = _coords(lexer)
    lexer.skip_ws()
    if lexer.pos != len(lexer.text):
        raise ValueError(f"trailing input in value literal {text!r}")
    return out


def _coords(lexer: _ValueLexer, nested: bool = True) -> CoordsLit:
    """A vector, or (when ``nested``) a matrix given as a list of rows."""
    lexer.eat("[")
    is_matrix = nested and lexer.peek() == "["
    item = (lambda: _coords(lexer, False).rows) if is_matrix else lexer.rational
    entries = [item()]
    while lexer.peek() == ",":
        lexer.eat(",")
        entries.append(item())
    lexer.eat("]")
    if is_matrix and len({len(row) for row in entries}) > 1:
        raise ValueError(f"matrix rows of unequal lengths in value literal {lexer.text!r}")
    return CoordsLit(tuple(entries), is_matrix)
