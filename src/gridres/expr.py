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
offending character.  Every token comes from one compiled pattern.

The rules work on raw coefficients: ints mod p (over F_p) or
ints/Fractions (over Q).  A run of variable and literal factors, each with
an optional exponent, stays one coefficient and one exponent list,
multiplied in place.  Only a parenthesised factor is a dict from exponent
tuples to nonzero coefficients; products and powers with one go through
the raw kernels of gridres.multipoly, the ones MultiPoly's own ring
operations use.  Either way a parsed product is the product MultiPoly
computes, overflow checks included: a product out of the signed 32-bit
range raises OverflowError, a literal exponent out of it raises
ParseError.  Over Q the integer coefficients left at the end become
Fractions, the raw form MultiPoly stores.

A product or power whose predicted size passes a fixed bound raises
ParseError at its operator before any work; the shared kernels are not bounded.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import Sequence

from .field import Field
from .multipoly import (MAX_EXPONENT, MIN_EXPONENT, MultiPoly, _check_exponent, _mul_terms,
                        _pow_terms, default_names)

__all__ = ["ParseError", "parse_poly", "default_names", "is_variable_name"]


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


# One token: an ASCII integer, a word or one other character.  So only an
# integer starts with an ASCII digit and only a word with a letter.  \w is
# exactly str.isalnum() or "_", \S exactly not str.isspace(), so a scan
# skips exactly the whitespace between tokens.
_TOKEN = re.compile(r"[0-9]+|\w+|\S")

# Bounds on predicted sizes: a product's term pairs, the C(e + t - 1, t - 1)
# possible terms of a t-term sum to the e (squaring to R terms costs about
# R^2 / 3 pairs), and over Q the bits of a coefficient other than +-1 to the e.
MAX_PAIRS = 100_000
MAX_POWER_TERMS = 500
MAX_POWER_BITS = 100_000


def is_variable_name(name: str) -> bool:
    """Whether the grammar can read name as a variable: one word token
    that starts with a letter."""
    return name[:1].isalpha() and _TOKEN.fullmatch(name) is not None


class _Parser:
    def __init__(self, text: str, field: Field, names: Sequence[str]):
        self.text = text
        self.field = field
        self.p = field.modulus  # None over Q: no reduction
        self.index = {name: i for i, name in enumerate(names)}
        self.nvars = len(names)
        self.unit = {(0,) * self.nvars: 1}
        self.tokens = _TOKEN.finditer(text)  # lazy, one token ahead
        self.advance()

    def advance(self):
        """The next token becomes tok ("" at the end), at its offset."""
        m = next(self.tokens, None)
        if m is None:
            self.tok, self.at = "", len(self.text)
        else:
            self.tok = m[0]
            self.at = m.start()

    def take(self, ch: str) -> bool:
        if self.tok == ch:
            self.advance()
            return True
        return False

    def _integer(self) -> int:
        if not "0" <= self.tok[:1] <= "9":
            raise ParseError("expected an integer", self.at)
        value = int(self.tok)
        self.advance()
        return value

    def parse(self) -> MultiPoly:
        terms = self.expr()
        if self.tok:
            raise ParseError(f"unexpected {self.tok[0]!r}", self.at)
        if self.p is None:
            terms = {m: c if type(c) is Fraction else Fraction(c)
                     for m, c in terms.items()}
        return MultiPoly(self.field, self.nvars, terms)

    def expr(self) -> dict:
        # one dict for all terms; reduced, and zeros dropped, once at the end
        terms: dict = {}
        negate = self.take("-")
        while True:
            for m, c in self.term():
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

    def term(self):
        """The (monomial, coefficient) pairs of a product.

        Up to its first parenthesised factor the product is one coefficient
        and one exponent list, multiplied in place; from there on it is a
        term dict, multiplied by the raw kernel.  Either way the checks are
        those of multiplying term dicts left to right, in the same order:
        the term pairs at each '*', and each summed exponent against the
        signed 32-bit range, except after a zero coefficient, which leaves
        no terms to check.
        """
        p = self.p
        coef, expo, poly = 1, [0] * self.nvars, None
        at = -1  # offset of the '*' before the factor; -1 for the first
        while True:
            f = self.factor()
            if poly is None and type(f) is tuple:
                c, k, e = f
                if coef:
                    if k is None:
                        if at >= 0:
                            c = coef * c % p if p else coef * c
                        coef = c
                    else:
                        expo[k] = _check_exponent(expo[k] + e)
            else:
                if type(f) is tuple:
                    c, k, e = f
                    f = {self._monomial(k, e): c} if c else {}
                if at < 0:
                    poly = f
                else:
                    if poly is None:
                        poly = {tuple(expo): coef} if coef else {}
                    if len(poly) * len(f) > MAX_PAIRS:
                        raise ParseError(f"product of {len(poly)} by {len(f)} terms is over "
                                         f"{MAX_PAIRS} term pairs", at)
                    poly = _mul_terms(poly, f, p)
            if self.tok != "*":
                break
            at = self.at
            self.advance()
        if poly is not None:
            return poly.items()
        return ((tuple(expo), coef),) if coef else ()

    def _monomial(self, k, e) -> tuple:
        """The exponent tuple of variable k to the e; the origin for k None."""
        m = [0] * self.nvars
        if k is not None:
            m[k] = e
        return tuple(m)

    def factor(self):
        """A parenthesised factor as a term dict, any other as (c, k, e):
        c times variable k to the e, k None for a literal."""
        base = self.base()
        op = self.at
        if self.tok != "^":
            return base
        self.advance()
        # errors point just past a sign, else at the exponent's first digit
        at = self.at + (self.tok == "-")
        sign = -1 if self.take("-") else 1
        e = sign * self._integer()
        if not MIN_EXPONENT <= e <= MAX_EXPONENT:
            raise ParseError(f"exponent {e} overflows 32 bits", at)
        p = self.p
        if type(base) is tuple:
            c, k, _ = base
            if k is not None:
                return (c, k, e)
            if not c:  # 0^0 = 1; 0^-e has no single term to invert
                if e < 0:
                    raise ParseError("negative power of a non-monomial", at)
                return (int(not e), None, 0)
            self._check_bits((c,), e, op)
            if p:
                return (pow(c, e, p), None, 0)
            return (c ** e if e >= 0 else Fraction(c) ** e, None, 0)
        if e < 0 and len(base) != 1:
            raise ParseError("negative power of a non-monomial", at)
        t = len(base)
        # comb(e + t - 1, t - 1) >= e + t - 1, so a large e or t is refused before comb runs
        if t > 1 and (e + t - 1 > MAX_POWER_TERMS or comb(e + t - 1, t - 1) > MAX_POWER_TERMS):
            raise ParseError(f"power of a {t}-term sum may expand to over "
                             f"{MAX_POWER_TERMS} terms", op)
        self._check_bits(base.values(), e, op)
        return _pow_terms(base, e, p, self.unit)

    def _check_bits(self, coefficients, e: int, op: int):
        """Over Q, refuse a power whose coefficients other than +-1 grow
        past MAX_POWER_BITS."""
        if self.p is None:
            bits = abs(e) * max((max(c.numerator.bit_length(), c.denominator.bit_length())
                                 for c in coefficients if abs(c) != 1), default=0)
            if bits > MAX_POWER_BITS:
                raise ParseError(f"power has a coefficient of about {bits} bits, over "
                                 f"{MAX_POWER_BITS}", op)

    def base(self):
        """'(' expr ')' as a term dict; a literal c as (c, None, 0) and a
        variable k as (1, k, 1)."""
        tok, at = self.tok, self.at
        if self.take("("):
            poly = self.expr()
            if not self.take(")"):
                raise ParseError("expected ')'", self.at)
            return poly
        p = self.p
        if "0" <= tok[:1] <= "9":
            value = self._integer()
            at = self.at + 1  # a zero denominator points just past the '/'
            if self.take("/"):
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
            return (value, None, 0)
        if tok[:1].isalpha():
            self.advance()
            index = self.index.get(tok)
            if index is None:
                index = self._aliased(tok)
            if index is None:
                raise ParseError(f"unknown variable {tok!r}", at)
            return (1, index, 1)
        raise ParseError("expected a variable, literal, or parenthesis", at)

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
