"""Reader for polynomial expressions.

Grammar:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' signed-int)?
    base   := variable | literal | '(' expr ')'

Variables are x, y, z (when the arity allows) or z1..zn.  Literals are
integers, optionally written as a fraction a/b so that canonical output
over the rationals reparses.  Negative exponents build Laurent monomials;
they are only legal on single-term bases.  Tokens are ASCII integers,
words (\\w+, so str.isalnum() or "_") and single other characters, and
any str.isspace() run separates them.  Errors carry the offset of the
offending character.

One reader takes a sum a term at a time where it can.  At a term start
(the first term, or a '+' or '-' where the last match ended) one regex
matches the whole term: its sign, then a run of factors joined by '*'
with no whitespace inside.  str methods read the factors off an ASCII
run: an optional literal a or a/b, then names with optional exponents.
Whatever that cannot settle (whitespace inside the term, '(', '^-', a
literal after a name, an unknown or aliased name, a non-ASCII character,
a denominator that vanishes, an exponent past the range) is read from the
same offset factor by factor: one regex matches a factor (the operator
before it, a literal or a word, an optional exponent) where the last match
ended, and only where it misses does a third one try '(', which recurses
into the parenthesised sum.  So the factor loop gives every message,
offset and error order, and the term read only skips it on text it would
accept.
A product of variables and literals is kept as one coefficient and one
exponent list; a parenthesised factor turns its term into a term dict.
Where no pattern matches, the sum ends: at its ')', at the end of the
text or at an error, which the characters there determine.  Every match
starts where the last one ended, and the term pattern is tried once per
term, so the reader runs in time linear in the text, malformed text
included.

The rules work on raw coefficients: ints mod p (over F_p) or
ints/Fractions (over Q).  Products and powers of term dicts go through the
raw kernels of gridres.multipoly, the ones MultiPoly's own ring operations
use, so a parsed product is the product MultiPoly computes, overflow checks
included: a product out of the signed 32-bit range raises OverflowError,
a literal exponent out of it raises ParseError.  Errors come in reading
order, each at the first point where the text is refused.  Over Q the
integer coefficients left at the end become Fractions, the raw form
MultiPoly stores.

A product or power whose predicted size passes a fixed bound raises
ParseError at its operator before any work; the shared kernels are not bounded.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from .field import Field
from .multipoly import (MAX_EXPONENT, MIN_EXPONENT, MultiPoly, _mul_terms,
                        _pow_terms, default_names)

__all__ = ["ParseError", "parse_poly", "default_names", "is_variable_name"]


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


# Bounds on predicted sizes: a product's term pairs, the C(e + t - 1, t - 1)
# possible terms of a t-term sum to the e (squaring to R terms costs about
# R^2 / 3 pairs), and over Q the bits of a coefficient other than +-1 to the e.
# The reader recurses once per open parenthesis, so their nesting is bounded too.
MAX_PAIRS = 100_000
MAX_DEPTH = 100
MAX_POWER_TERMS = 500
MAX_POWER_BITS = 100_000

# One factor with the whitespace around it: the operator before it (none
# before the first), a literal a or a/b or a word, and an optional exponent;
# an unmatched part reads None.  Every part is greedy and all after the base
# optional, so a match never stops inside a token.  No two whitespace runs
# are adjacent, so a match takes time linear in the text it tries.
_FACTOR = re.compile(r"\s*(?:([-+*])\s*)?(?:([0-9]+)(?:\s*/\s*([0-9]+))?|(\w+))"
                     r"(?:\s*\^\s*(?:(-)\s*)?([0-9]+))?\s*")
# An opening parenthesis with the operator before it, and a closing one with
# an optional exponent.
_OPEN = re.compile(r"\s*(?:([-+*])\s*)?\(")
_CLOSE = re.compile(r"\)(?:\s*\^\s*(?:(-)\s*)?([0-9]+))?\s*")
_SPACE = re.compile(r"\s*")
# A whole term at a term start: its sign with the whitespace around it, a
# run of word characters, '^', '/' and '*' with no whitespace inside, and
# the whitespace after it, where a term may end.  _term reads the factors
# off the run.  Neighbouring parts share no character (the run holds no
# whitespace, sign or ')'), so a miss gives each character back once: one
# pass over the term, and the factor loop then reads it.  (Possessive
# quantifiers would say so directly, but need Python 3.11.)
_TERM = re.compile(r"\s*(?:([-+])\s*)?([\w^/*]+)\s*(?=[-+)]|\Z)")
_EXPECTED = "expected a variable, literal, or parenthesis"


def is_variable_name(name: str) -> bool:
    """Whether the grammar can read name as a variable: one word token
    that starts with a letter."""
    return name[:1].isalpha() and all(ch.isalnum() or ch == "_" for ch in name)


def _read(text: str, pos: int, p, index: dict, nvars: int, depth: int):
    """The sum at pos, as terms reduced mod p (p None over Q), and the
    offset of the first non-space character after it: the end of the text,
    or a character that the caller reads or refuses.  index maps each name
    that starts with a letter to its variable; depth counts open parentheses.
    """
    match = _FACTOR.match
    terms: dict = {}
    expo = None  # the exponent list of the open term; None before the first
    coef = 0     # its coefficient, 0 once a parenthesis made the term
    poly = None  # this term dict
    negate = False
    last = None  # the last factor's or whole term's match
    while True:
        if expo is None or text.startswith(("+", "-"), pos):
            term = _TERM.match(text, pos)
            if term and (expo is not None or term[1] != "+"):
                read = _term(term[2], p, index, nvars)
                if read:
                    if coef or poly:  # close a term the factor loop read
                        _add(terms, {tuple(expo): coef} if coef else poly, negate)
                    c, m = read
                    if c:
                        if term[1] == "-":
                            c = -c
                        s = terms.get(m)
                        terms[m] = c if s is None else s + c
                    expo, coef, poly, last, pos = (), 0, None, term, term.end()
                    if pos < len(text) and text[pos] != ")":
                        continue  # a '+' or '-': the next term
                    break
        factor = match(text, pos)
        if factor is None:
            factor = _OPEN.match(text, pos) if pos < len(text) else None
            if factor is None:
                break
            op = factor[1]
            if not (op in (None, "-") if expo is None else op):
                break
            if depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", factor.end() - 1)
            f, at = _read(text, factor.end(), p, index, nvars, depth + 1)
            last = _CLOSE.match(text, at)
            if last is None:
                raise ParseError("expected ')'", at)
            if last[2]:
                f = _power(f, last, 1, p, nvars)
            pos = last.end()
            term = {tuple(expo): coef} if coef else poly or {}
            if op == "*":
                _dangling(last)
                f = _product(term, f, p, factor.start(1))
            else:
                _add(terms, term, negate)
                negate = op == "-"
            expo, coef, poly = (), 0, f
            continue
        op, num, den, name, minus, power = factor.groups()
        if not (op in (None, "-") if expo is None else op):
            break  # a '+' or '*' before the first factor, or no operator after it
        last = factor
        pos = factor.end()
        if num:
            c = int(num)
            if den:
                d = int(den)
                if not (d % p if p else d):
                    if d:
                        raise ZeroDivisionError("inversion of zero field element")
                    raise ParseError("zero denominator", text.index("/", factor.end(2)) + 1)
                c = c * pow(d, -1, p) if p else Fraction(c, d)
            if p:
                c %= p
            if power:
                c = next(iter(_power({(0,) * nvars: c} if c else {}, factor, 5, p,
                                     nvars).values()), 0)
            k = None
        else:
            k = index.get(name)
            if k is None:
                k = _aliased(name, nvars)
                if k is None:
                    raise ParseError(f"unknown variable {name!r}" if name[:1].isalpha()
                                     else _EXPECTED, factor.start(4))
            e = 1
            if power:
                e = -int(power) if minus else int(power)
                if not MIN_EXPONENT <= e <= MAX_EXPONENT:
                    raise ParseError(f"exponent {e} overflows 32 bits",
                                     factor.start(5) + 1 if minus else factor.start(6))
        if op == "*":
            if coef:  # a zero coefficient skips the rest of its term
                if k is None:
                    coef = coef * c % p if p else coef * c
                else:
                    e += expo[k]
                    if not MIN_EXPONENT <= e <= MAX_EXPONENT:
                        _dangling(factor)
                        raise OverflowError(f"exponent {e} exceeds signed 32-bit range")
                    expo[k] = e
            elif poly is not None:
                _dangling(factor)
                f = ({(0,) * nvars: c} if c else {}) if k is None else {
                    (0,) * k + (e,) + (0,) * (nvars - k - 1): 1}
                poly = _product(poly, f, p, factor.start(1))
            continue
        if coef:
            m = tuple(expo)
            s = terms.get(m)
            if negate:
                coef = -coef
            terms[m] = coef if s is None else s + coef
        elif poly:
            _add(terms, poly, negate)
        poly = None
        negate = op == "-"
        expo = [0] * nvars
        if k is None:
            coef = c
        else:
            coef = 1
            expo[k] = e
    _add(terms, {tuple(expo): coef} if coef else poly or {}, negate)
    if last is None or pos < len(text):
        pos = _stop(text, pos, last)
    if p:
        return {m: c % p for m, c in terms.items() if c % p}, pos
    return {m: c for m, c in terms.items() if c}, pos


def _term(body: str, p, index: dict, nvars: int):
    """(coefficient, exponent tuple) of an ASCII term body: an optional
    literal a or a/b, then names of index with optional exponents, joined
    by '*'; the coefficient as the factor loop computes it.  None when the
    factor loop must read the body: a non-ASCII character, any other
    factor, a denominator that vanishes (mod p), or an exponent past the
    range."""
    if not body.isascii():  # so isdigit() means [0-9]
        return None
    factors = body.split("*")
    num, slash, den = factors[0].partition("/")
    coef, first = 1, 0
    if num.isdigit():
        coef, first = int(num), 1
        if slash:
            if not den.isdigit():
                return None
            d = int(den)
            if not (d % p if p else d):
                return None
            coef = coef * pow(d, -1, p) if p else Fraction(coef, d)
        if p:
            coef %= p
    expo = [0] * nvars
    for factor in factors[first:]:
        name, caret, power = factor.partition("^")
        k = index.get(name)
        if k is None:
            return None
        if caret:
            if not power.isdigit():
                return None
            e = expo[k] + int(power)
        else:
            e = expo[k] + 1
        if e > MAX_EXPONENT:
            return None
        expo[k] = e
    return coef, tuple(expo)


def _stop(text: str, pos: int, last) -> int:
    """pos, the first non-space character after the sum whose last factor
    match is last (None if it has none), unless what stands there starts a
    factor or a part of one and no factor reads it: then its error."""
    if last is None:
        at = _SPACE.match(text, pos).end()
        if text.startswith("-", at):
            at = _SPACE.match(text, at + 1).end()
        raise ParseError(_EXPECTED, at)
    _dangling(last)
    if text[pos:pos + 1] in ("+", "-", "*"):
        raise ParseError(_EXPECTED, _SPACE.match(text, pos + 1).end())
    return pos


def _dangling(last):
    """Refuse a '^', or a '/' after a bare integer, that follows the factor
    match last with no integer after it.  Reading that factor fails there,
    before its product is formed."""
    text, at = last.string, last.end()
    ch = text[at:at + 1]
    power = "^" in last[0]
    if (ch == "^" and not power or ch == "/" and not power
            and last.re is _FACTOR and last[2] and not last[3]):
        at = _SPACE.match(text, at + 1).end()
        if ch == "^" and text.startswith("-", at):
            at = _SPACE.match(text, at + 1).end()
        raise ParseError("expected an integer", at)


def _power(base: dict, m, g: int, p, nvars: int) -> dict:
    """base to the exponent that match m holds, its '-' in group g and its
    digits in g + 1.  An exponent error points just past the '-' if there is
    one, else at the first digit; a size bound's error at the '^'."""
    e, at = int(m[g + 1]), m.start(g + 1)
    if m[g]:
        e, at = -e, m.start(g) + 1
    if not MIN_EXPONENT <= e <= MAX_EXPONENT:
        raise ParseError(f"exponent {e} overflows 32 bits", at)
    t = len(base)
    if e < 0 and t != 1:  # 0^-e included: zero has no term to invert
        raise ParseError("negative power of a non-monomial", at)
    op = m.string.index("^", m.start())
    # comb(e + t - 1, t - 1) >= e + t - 1, so a large e or t is refused before comb runs
    if t > 1 and (e + t - 1 > MAX_POWER_TERMS or comb(e + t - 1, t - 1) > MAX_POWER_TERMS):
        raise ParseError(f"power of a {t}-term sum may expand to over "
                         f"{MAX_POWER_TERMS} terms", op)
    if p is None:  # the bits of the coefficients other than +-1
        bits = abs(e) * max((max(c.numerator.bit_length(), c.denominator.bit_length())
                             for c in base.values() if abs(c) != 1), default=0)
        if bits > MAX_POWER_BITS:
            raise ParseError(f"power has a coefficient of about {bits} bits, over "
                             f"{MAX_POWER_BITS}", op)
    return _pow_terms(base, e, p, {(0,) * nvars: 1})


def _product(a: dict, b: dict, p, at: int) -> dict:
    """a * b, refused at the '*' at offset at past MAX_PAIRS term pairs."""
    if len(a) * len(b) > MAX_PAIRS:
        raise ParseError(f"product of {len(a)} by {len(b)} terms is over "
                         f"{MAX_PAIRS} term pairs", at)
    return _mul_terms(a, b, p)


def _add(terms: dict, poly: dict, negate: bool):
    """Add poly, or its negative, into a sum's unreduced terms."""
    for m, c in poly.items():
        s = terms.get(m)
        if negate:
            c = -c
        terms[m] = c if s is None else s + c


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


def parse_poly(text: str, field: Field, names) -> MultiPoly:
    """Parse an expression into an exact polynomial.

    names may be a list of variable names or an integer arity (in which
    case x, y, z or z1..zn are used).
    """
    if isinstance(names, int):
        names = default_names(names)
    p = field.modulus
    # only a word that starts with a letter reads as a variable
    index = {name: i for i, name in enumerate(names) if name[:1].isalpha()}
    terms, at = _read(text, 0, p, index, len(names), 0)
    if at < len(text):
        raise ParseError(f"unexpected {text[at]!r}", at)
    if p is None:
        terms = {m: c if type(c) is Fraction else Fraction(c) for m, c in terms.items()}
    return MultiPoly(field, len(names), terms)
