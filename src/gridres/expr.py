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

The rules work on raw coefficients: each returns a dict from exponent
tuples to nonzero ints mod p (over F_p) or ints/Fractions (over Q).
Products and powers of single terms are computed on the exponent tuple
and the coefficient directly; sums in parentheses go through one small
multiply, which repeated squaring uses too.  Each surviving term becomes a
FieldElement once, when the MultiPoly is built.  Exponents are checked as
MultiPoly checks them: a product out of the signed 32-bit range raises
OverflowError, a literal exponent out of it raises ParseError.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Sequence

from .field import Field, FieldElement
from .multipoly import (MAX_EXPONENT, MIN_EXPONENT, MultiPoly, default_names,
                        format_poly, monomial_product)

__all__ = ["ParseError", "parse_poly", "poly_to_string", "default_names"]


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


def _in_range(m: tuple) -> bool:
    return not m or (MIN_EXPONENT <= min(m) and max(m) <= MAX_EXPONENT)


def _product_exponents(a: tuple, b: tuple) -> tuple:
    m = tuple(map(add, a, b))
    if not _in_range(m):
        monomial_product(a, b)  # raises the OverflowError MultiPoly raises
    return m


class _Parser:
    def __init__(self, text: str, field: Field, names: Sequence[str]):
        self.text = text
        self.field = field
        self.p = field.modulus  # None over Q: no reduction
        self.names = list(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.nvars = len(self.names)
        self.origin = (0,) * self.nvars
        self.units = [tuple(int(i == k) for i in range(self.nvars))
                      for k in range(self.nvars)]
        self.pos = 0

    # -- scanning ----------------------------------------------------------

    def peek(self) -> str:
        """Skip whitespace; the next character, or "" at the end."""
        text, pos = self.text, self.pos
        while text[pos:pos + 1].isspace():
            pos += 1
        self.pos = pos
        return text[pos:pos + 1]

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(f"expected {ch!r}", self.pos)

    def _integer(self) -> int:
        self.peek()
        text, start = self.text, self.pos
        pos = start
        # ASCII digits only: str.isdigit also accepts digits such as '²' and '١'
        while pos < len(text) and "0" <= text[pos] <= "9":
            pos += 1
        if pos == start:
            raise ParseError("expected an integer", start)
        self.pos = pos
        return int(text[start:pos])

    def _identifier(self) -> str:
        self.peek()
        text, start = self.text, self.pos
        pos = start
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        self.pos = pos
        return text[start:pos]

    # -- raw arithmetic ------------------------------------------------------

    def _mul(self, a: dict, b: dict) -> dict:
        """Product of term maps, in MultiPoly.__mul__'s order of terms."""
        p = self.p
        if len(a) == 1 and len(b) == 1:
            (m1, c1), = a.items()
            (m2, c2), = b.items()
            c = c1 * c2
            return {_product_exponents(m1, m2): c % p if p else c}
        out: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = _product_exponents(m1, m2)
                c = c1 * c2
                s = out.get(m)
                if s is not None:
                    c += s
                if p:
                    c %= p
                if c:
                    out[m] = c
                else:
                    out.pop(m, None)
        return out

    def _power(self, poly: dict, e: int) -> dict:
        """poly^e for e >= 0 by repeated squaring, as MultiPoly.__pow__."""
        result = {self.origin: 1}
        while e:
            if e & 1:
                result = self._mul(result, poly)
            e >>= 1
            if e:
                poly = self._mul(poly, poly)
        return result

    # -- grammar -------------------------------------------------------------

    def parse(self) -> MultiPoly:
        terms = self.expr()
        if self.peek():
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        field = self.field
        if self.p is None:
            terms = {m: FieldElement(field, c if type(c) is Fraction else Fraction(c))
                     for m, c in terms.items()}
        else:
            terms = {m: FieldElement(field, c) for m, c in terms.items()}
        return MultiPoly(field, self.nvars, terms)

    def expr(self) -> dict:
        # one dict for all terms; reduced, and zeros dropped, once at the end
        terms: dict = {}
        negate = self.take("-")
        while True:
            for m, c in self.term().items():
                if negate:
                    c = -c
                s = terms.get(m)
                terms[m] = c if s is None else s + c
            if self.take("+"):
                negate = False
            elif self.take("-"):
                negate = True
            else:
                p = self.p
                if p:
                    return {m: c % p for m, c in terms.items() if c % p}
                return {m: c for m, c in terms.items() if c}

    def term(self) -> dict:
        poly = self.factor()
        while self.take("*"):
            poly = self._mul(poly, self.factor())
        return poly

    def factor(self) -> dict:
        poly = self.base()
        if not self.take("^"):
            return poly
        sign = -1 if self.take("-") else 1
        at = self.pos
        e = sign * self._integer()
        if abs(e) > MAX_EXPONENT:
            raise ParseError(f"exponent {e} overflows 32 bits", at)
        if len(poly) != 1:
            if e < 0:
                raise ParseError("negative power of a non-monomial", at)
            return self._power(poly, e)
        (m, c), = poly.items()
        expo = tuple(x * e for x in m)
        if not _in_range(expo):
            # raise the OverflowError MultiPoly raises: first bad exponent
            # for a negative power, first bad square or product otherwise
            if e < 0:
                monomial_product(expo, self.origin)
            self._power(poly, e)
        p = self.p
        if p:
            return {expo: pow(c, e, p)}
        return {expo: Fraction(c) ** e if e < 0 else c ** e}

    def base(self) -> dict:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            poly = self.expr()
            self.expect(")")
            return poly
        p = self.p
        if "0" <= ch <= "9":
            value = self._integer()
            if self.peek() == "/":
                self.pos += 1
                at = self.pos
                den = self._integer()
                if den == 0:
                    raise ParseError("zero denominator", at)
                if p is None:
                    value = Fraction(value, den)
                elif den % p:
                    value = value * pow(den, -1, p)
                else:
                    raise ZeroDivisionError("inversion of zero field element")
            if p:
                value %= p
            return {self.origin: value} if value else {}
        if ch.isalpha():
            at = self.pos
            name = self._identifier()
            index = self.index.get(name)
            if index is None:
                index = self._aliased(name)
            if index is None:
                raise ParseError(f"unknown variable {name!r}", at)
            return {self.units[index]: 1}
        raise ParseError("expected a variable, literal, or parenthesis", self.pos)

    def _aliased(self, name: str):
        # z1..zn always work; x, y, z address low arities unambiguously
        if name.startswith("z") and name[1:].isascii() and name[1:].isdigit():
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
