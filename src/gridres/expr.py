"""Recursive-descent parser for polynomial expressions.

Grammar:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' signed-int)?
    base   := variable | literal | '(' expr ')'

Variables are x, y, z (when the arity allows) or z1..zn.  Literals are
integers, optionally written as a fraction a/b so that canonical output
over the rationals reparses.  Negative exponents build Laurent monomials;
they are only legal on single-term bases.  Errors carry the offset of the
offending character.
"""

from __future__ import annotations

from typing import Sequence

from .field import Field
from .multipoly import MAX_EXPONENT, MultiPoly, default_names, format_poly

__all__ = ["ParseError", "parse_poly", "poly_to_string", "default_names"]


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class _Parser:
    def __init__(self, text: str, field: Field, names: Sequence[str]):
        self.text = text
        self.field = field
        self.names = list(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.nvars = len(self.names)
        self.pos = 0

    # -- scanning ----------------------------------------------------------

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(f"expected {ch!r}", self.pos)

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    def _identifier(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    # -- grammar -------------------------------------------------------------

    def parse(self) -> MultiPoly:
        poly = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return poly

    def expr(self) -> MultiPoly:
        # one dict for all terms; zero coefficients are dropped once, at the end
        terms: dict = {}
        negate = self.take("-")
        while True:
            for m, c in self.term().terms.items():
                if negate:
                    c = -c
                s = terms.get(m)
                terms[m] = c if s is None else s + c
            if self.take("+"):
                negate = False
            elif self.take("-"):
                negate = True
            else:
                return MultiPoly(self.field, self.nvars,
                                 {m: c for m, c in terms.items() if not c.is_zero()})

    def term(self) -> MultiPoly:
        poly = self.factor()
        while self.take("*"):
            poly = poly * self.factor()
        return poly

    def factor(self) -> MultiPoly:
        poly = self.base()
        if self.take("^"):
            sign = -1 if self.take("-") else 1
            at = self.pos
            e = sign * self._integer()
            if abs(e) > MAX_EXPONENT:
                raise ParseError(f"exponent {e} overflows 32 bits", at)
            try:
                return poly ** e
            except ValueError as err:
                raise ParseError(str(err), at) from None
        return poly

    def base(self) -> MultiPoly:
        ch = self.peek()
        if ch == "(":
            self.take("(")
            poly = self.expr()
            self.expect(")")
            return poly
        if ch.isdigit():
            num = self._integer()
            if self.peek() == "/":
                self.take("/")
                at = self.pos
                den = self._integer()
                if den == 0:
                    raise ParseError("zero denominator", at)
                value = self.field(num) * self.field(den).inv()
                return MultiPoly.constant(self.field, self.nvars, value)
            return MultiPoly.constant(self.field, self.nvars, num)
        if ch.isalpha():
            at = self.pos
            name = self._identifier()
            index = self.index.get(name)
            if index is None:
                index = self._aliased(name)
            if index is None:
                raise ParseError(f"unknown variable {name!r}", at)
            return MultiPoly.variable(self.field, self.nvars, index)
        raise ParseError("expected a variable, literal, or parenthesis", self.pos)

    def _aliased(self, name: str):
        # z1..zn always work; x, y, z address low arities unambiguously
        if name.startswith("z") and name[1:].isdigit():
            k = int(name[1:])
            if 1 <= k <= self.nvars:
                return k - 1
        if self.nvars <= 3:
            shorthand = {"x": 0, "y": 1, "z": 2}.get(name)
            if shorthand is not None and shorthand < self.nvars:
                return shorthand
        return None


def parse_poly(text: str, field: Field, names) -> MultiPoly:
    """Parse an expression into an exact polynomial.

    names may be a list of variable names or an integer arity (in which
    case x, y, z or z1..zn are used).
    """
    if isinstance(names, int):
        names = default_names(names)
    return _Parser(text, field, names).parse()


def poly_to_string(f: MultiPoly, names: Sequence[str] | None = None) -> str:
    """Canonical text form; reparsing yields an equal polynomial."""
    return format_poly(f, names)
