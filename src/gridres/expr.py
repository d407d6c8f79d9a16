"""Parser for polynomial expressions.

Grammar:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' signed-int)?
    base   := variable | literal | '(' expr ')'

Variables are x, y, z (when the arity allows) or z1..zn.  Literals are
integers, optionally written as a fraction a/b so that canonical output
over the rationals reparses.  Negative exponents build Laurent monomials;
they are only legal on single-term bases.  Errors carry the offset of the
offending character.  The recursive-descent parser takes every token
from one compiled pattern.

The rules work on raw coefficients: ints mod p (over F_p) or
ints/Fractions (over Q).  Every factor is a dict from exponent tuples to
nonzero coefficients, and products and powers go through the raw kernels
of gridres.multipoly, the ones MultiPoly's own ring operations use.  So a
parsed product is the product MultiPoly computes, overflow checks
included: a product out of the signed 32-bit range raises OverflowError,
a literal exponent out of it raises ParseError.  Over Q the integer
coefficients left at the end become Fractions, the raw form MultiPoly
stores.

A product or power whose predicted size passes a fixed bound raises
ParseError at its operator before any work; the shared kernels are not bounded.

Two readers share this grammar.  A flat sum, ['-'] c*x^a*y^b (+- ...)*
with no parenthesis and no literal to a power, is read by one regex scan
and one loop over its factors, which builds the terms the recursive-descent
parser would.  Each factor is matched where the last one ended, so the
scan stops at the first character no factor reads, in time linear in the
text.  Everything else goes to that parser, from the start: any
parenthesised text, and any text that is not a well-formed flat sum, so
every error and its offset come from the recursive-descent parser.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import Sequence

from .field import Field
from .multipoly import (MAX_EXPONENT, MIN_EXPONENT, MultiPoly, _mul_terms,
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
# The parser recurses once per open parenthesis, so their nesting is bounded too.
MAX_PAIRS = 100_000
MAX_DEPTH = 100
MAX_POWER_TERMS = 500
MAX_POWER_BITS = 100_000


def is_variable_name(name: str) -> bool:
    """Whether the grammar can read name as a variable: one word token
    that starts with a letter."""
    return name[:1].isalpha() and _TOKEN.fullmatch(name) is not None


class _Parser:
    def __init__(self, text: str, field: Field, names: Sequence[str]):
        self.text = text
        self.p = field.modulus  # None over Q: no reduction
        self.index = {name: i for i, name in enumerate(names)}
        self.nvars = len(names)
        self.origin = (0,) * self.nvars
        self.unit = {self.origin: 1}
        self.depth = 0  # open parentheses
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

    def parse(self) -> dict:
        terms = self.expr()
        if self.tok:
            raise ParseError(f"unexpected {self.tok[0]!r}", self.at)
        return terms

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
                return _reduced(terms, self.p)

    def term(self) -> dict:
        """A product: the term dicts of its factors multiplied left to right
        by the raw kernel, the term pairs checked at each '*'."""
        poly = self.factor()
        while self.tok == "*":
            at = self.at
            self.advance()
            f = self.factor()
            if len(poly) * len(f) > MAX_PAIRS:
                raise ParseError(f"product of {len(poly)} by {len(f)} terms is over "
                                 f"{MAX_PAIRS} term pairs", at)
            poly = _mul_terms(poly, f, self.p)
        return poly

    def factor(self) -> dict:
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
        if e < 0 and len(base) != 1:  # 0^-e included: zero has no term to invert
            raise ParseError("negative power of a non-monomial", at)
        t = len(base)
        # comb(e + t - 1, t - 1) >= e + t - 1, so a large e or t is refused before comb runs
        if t > 1 and (e + t - 1 > MAX_POWER_TERMS or comb(e + t - 1, t - 1) > MAX_POWER_TERMS):
            raise ParseError(f"power of a {t}-term sum may expand to over "
                             f"{MAX_POWER_TERMS} terms", op)
        self._check_bits(base.values(), e, op)
        return _pow_terms(base, e, self.p, self.unit)

    def _check_bits(self, coefficients, e: int, op: int):
        """Over Q, refuse a power whose coefficients other than +-1 grow
        past MAX_POWER_BITS."""
        if self.p is None:
            bits = abs(e) * max((max(c.numerator.bit_length(), c.denominator.bit_length())
                                 for c in coefficients if abs(c) != 1), default=0)
            if bits > MAX_POWER_BITS:
                raise ParseError(f"power has a coefficient of about {bits} bits, over "
                                 f"{MAX_POWER_BITS}", op)

    def base(self) -> dict:
        """'(' expr ')', a literal or a variable, as a term dict."""
        tok, at = self.tok, self.at
        if self.take("("):
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", at)
            self.depth += 1
            poly = self.expr()
            if not self.take(")"):
                raise ParseError("expected ')'", self.at)
            self.depth -= 1
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
            return {self.origin: value} if value else {}
        if tok[:1].isalpha():
            self.advance()
            index = self.index.get(tok)
            if index is None:
                index = _aliased(tok, self.nvars)
            if index is None:
                raise ParseError(f"unknown variable {tok!r}", at)
            m = [0] * self.nvars
            m[index] = 1
            return {tuple(m): 1}
        raise ParseError("expected a variable, literal, or parenthesis", at)


def _reduced(terms: dict, p) -> dict:
    """A sum's terms reduced mod p (p None over Q), zeros dropped."""
    if p:
        return {m: c % p for m, c in terms.items() if c % p}
    return {m: c for m, c in terms.items() if c}


def _aliased(name: str, nvars: int):
    # z1..zn always work; x, y, z address low arities unambiguously
    if name.startswith("z") and name[1:].isascii() and name[1:].isdigit():
        k = int(name[1:])
        if 1 <= k <= nvars:
            return k - 1
    if nvars <= 3:
        shorthand = {"x": 0, "y": 1, "z": 2}.get(name)
        if shorthand is not None and shorthand < nvars:
            return shorthand
    return None


# One factor of a flat sum with the whitespace around it: the operator
# before it (none before the first), a literal a or a/b or a word, and an
# optional exponent; an unmatched part reads None.  Every part is greedy
# and all after the base optional, so a match never stops inside a token.
# No two whitespace runs are adjacent, so a match takes time linear in the
# text it tries, and _read_flat tries it only where the last one ended.
_FACTOR = re.compile(r"\s*(?:([-+*])\s*)?(?:([0-9]+)(?:\s*/\s*([0-9]+))?|(\w+))"
                     r"(?:\s*\^\s*(?:(-)\s*)?([0-9]+))?\s*")


def _read_flat(text: str, p, names) -> dict | None:
    """The terms of a flat sum ['-'] c*x^a*y^b (+- ...)*, as _Parser builds
    them: the same order, values, reduction and exponent checks.

    None for text that has a parenthesis, a literal to a power or anything
    _Parser would refuse; _Parser then reads it from the start, so every
    error is _Parser's.  This never raises.
    """
    if "(" in text:
        return None
    nvars = len(names)
    # _Parser reads only a word that starts with a letter as a variable
    index = {name: i for i, name in enumerate(names) if name[:1].isalpha()}
    match = _FACTOR.match
    terms: dict = {}
    pos, end = 0, len(text)
    expo = None  # the exponent list of the open term; None before the first
    try:
        while pos < end:
            factor = match(text, pos)
            if factor is None:
                return None
            pos = factor.end()
            op, num, den, name, minus, power = factor.groups()
            if num:
                if power:
                    return None
                c = int(num)
                if den:
                    d = int(den)
                    if not (d % p if p else d):
                        return None
                    c = c * pow(d, -1, p) if p else Fraction(c, d)
                if p:
                    c %= p
                k = None
            else:
                k = index.get(name)
                if k is None:
                    k = _aliased(name, nvars)
                    if k is None:
                        return None
                e = 1
                if power:
                    e = -int(power) if minus else int(power)
                    if not MIN_EXPONENT <= e <= MAX_EXPONENT:
                        return None
            if op == "*":
                if expo is None:
                    return None
                if coef:  # a zero coefficient skips the rest of its term
                    if k is None:
                        coef = coef * c % p if p else coef * c
                    else:
                        e += expo[k]
                        if not MIN_EXPONENT <= e <= MAX_EXPONENT:
                            return None
                        expo[k] = e
                continue
            if expo is None:
                if op == "+":
                    return None
            elif not op:
                return None
            elif coef:
                m = tuple(expo)
                s = terms.get(m)
                if negate:
                    coef = -coef
                terms[m] = coef if s is None else s + coef
            negate = op == "-"
            expo = [0] * nvars
            if k is None:
                coef = c
            else:
                coef = 1
                expo[k] = e
    except ValueError:  # an integer past Python's digit limit
        return None
    if expo is None:  # empty text
        return None
    if coef:  # the last term
        if negate:
            coef = -coef
        m = tuple(expo)
        s = terms.get(m)
        terms[m] = coef if s is None else s + coef
    return _reduced(terms, p)


def parse_poly(text: str, field: Field, names) -> MultiPoly:
    """Parse an expression into an exact polynomial.

    names may be a list of variable names or an integer arity (in which
    case x, y, z or z1..zn are used).
    """
    if isinstance(names, int):
        names = default_names(names)
    p = field.modulus
    terms = _read_flat(text, p, names)
    if terms is None:
        terms = _Parser(text, field, names).parse()
    if p is None:
        terms = {m: c if type(c) is Fraction else Fraction(c) for m, c in terms.items()}
    return MultiPoly(field, len(names), terms)
