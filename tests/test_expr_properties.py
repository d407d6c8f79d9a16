"""Property tests: canonical text reparses to the polynomial it came from,
and the reader agrees with the recursive-descent reference parser of
helpers.py on flat and parenthesised text, mutated or not."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gridres import Field, MultiPoly, format_poly, parse_poly
from gridres import expr
from gridres.multipoly import MAX_EXPONENT, MIN_EXPONENT, default_names

from helpers import ReferenceParser

FIELDS = [Field.rationals(), Field.prime(7), Field.prime(10007), Field.prime(2 ** 31 - 1)]

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# The parser reads a literal exponent over the whole range MultiPoly holds.
EXPONENTS = st.one_of(st.integers(-12, 12), st.integers(MIN_EXPONENT, MAX_EXPONENT),
                      st.sampled_from([MIN_EXPONENT, MAX_EXPONENT]))


@st.composite
def laurent_polys(draw):
    """A Laurent polynomial in 1-5 variables with multi-digit exponents and,
    over Q, fraction coefficients with multi-digit parts."""
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(1, 5))
    if field.is_prime_field:
        coefficients = st.integers(-field.modulus, 2 * field.modulus)
    else:
        coefficients = st.fractions(min_value=-10 ** 12, max_value=10 ** 12,
                                    max_denominator=10 ** 9)
    terms = draw(st.dictionaries(st.tuples(*[EXPONENTS] * nvars), coefficients, max_size=8))
    return MultiPoly.from_terms(field, nvars, terms)


@SETTINGS
@given(laurent_polys())
def test_format_parse_round_trip(f):
    g = parse_poly(format_poly(f), f.field, f.nvars)
    assert g == f
    assert g.terms == f.terms


# -- the reader against the recursive-descent reference --------------------------

SPACES = st.sampled_from(["", "", " ", "\t", "\u3000"])
# inserted tokens: a stray sign, a zero denominator, an exponent one past the
# range, a non-ASCII digit, a non-ASCII letter, an underscore, parentheses,
# a lone '^' or '/', a tab, a run of whitespace and doubled operators
MUTANTS = ["^-", "/0", "2147483648", "\u0663", "\u00e9", "_", "(", ")", "*(", "^", "/",
           "\t", " \t\u3000  ", "++", "--", "**", "+-", "*-", "^^", "//"]
EXPONENTS_SMALL = st.one_of(st.integers(-2, 4), st.sampled_from([MIN_EXPONENT, MAX_EXPONENT]))


def _atom(draw, words) -> list:
    """A literal a or a/b, or a word with an optional exponent."""
    if draw(st.booleans()):
        tokens = [str(draw(st.integers(0, 10 ** 12)))]
        if draw(st.integers(0, 3)) == 0:
            tokens += ["/", str(draw(st.integers(1, 30)))]
        return tokens
    tokens = [draw(words)]
    if draw(st.booleans()):
        e = draw(st.one_of(st.integers(-3, 12), st.sampled_from([MIN_EXPONENT, MAX_EXPONENT])))
        tokens += ["^", "-" if e < 0 else "", str(abs(e))]
    return tokens


def _sum_tokens(draw, words, depth: int, terms: int, factors: int) -> list:
    """A sum as a token list; below depth 0 every factor is an atom, else
    some are parenthesised sums, with an exponent or without."""
    tokens = []
    for i in range(draw(st.integers(1, terms))):
        sign = draw(st.sampled_from(["", "-"] if i == 0 else ["+", "-"]))
        if sign:
            tokens += [sign, draw(SPACES)]
        for j in range(draw(st.integers(1, factors))):
            if j:
                tokens += [draw(SPACES), "*", draw(SPACES)]
            if depth > 0 and draw(st.integers(0, 2)) == 0:
                tokens += ["(", draw(SPACES), *_sum_tokens(draw, words, depth - 1, 3, 2), ")"]
                if draw(st.booleans()):
                    e = draw(EXPONENTS_SMALL)
                    tokens += [draw(SPACES), "^", draw(SPACES), "-" if e < 0 else "", str(abs(e))]
            else:
                tokens += _atom(draw, words)
        tokens.append(draw(SPACES))
    return tokens


def sums(depth: int):
    """A sum as a token list, its field and variable names; the tokens of
    an operand or exponent are separate, so mutations can split them."""
    @st.composite
    def draw_sum(draw):
        field = draw(st.sampled_from(FIELDS))
        nvars = draw(st.integers(1, 4))
        names = draw(st.sampled_from([default_names(nvars), ["\u00e9", "b1", "x", "_c"][:nvars]]))
        # a word may also be an alias (z1.., x/y/z) or unknown
        words = st.sampled_from(names + ["z1", "z2", "z01", "x", "y", "w"])
        return _sum_tokens(draw, words, depth, 5 - depth, 4 - depth), field, names
    return draw_sum()


def mutated(cases):
    """Up to three mutations of a token list: an inserted token, a deleted
    one, two swapped, or a span wrapped in parentheses (with an exponent or
    without)."""
    @st.composite
    def draw_mutated(draw):
        tokens, field, names = draw(cases)
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["insert", "delete", "swap", "wrap"]))
            at = draw(st.integers(0, len(tokens) - 1))
            if kind == "insert":
                tokens.insert(at, draw(st.sampled_from(MUTANTS)))
            elif kind == "delete" and len(tokens) > 1:
                del tokens[at]
            elif kind == "swap" and at + 1 < len(tokens):
                tokens[at], tokens[at + 1] = tokens[at + 1], tokens[at]
            elif kind == "wrap":
                end = draw(st.integers(at, len(tokens)))
                tokens[at:end] = ["(", *tokens[at:end], ")" + draw(st.sampled_from(["", "^2", "^-1"]))]
        return "".join(tokens), field, names
    return draw_mutated()


def _outcome(read):
    """The terms with their order and coefficient types, or the error."""
    try:
        terms = read()
    except (ValueError, OverflowError, ZeroDivisionError) as err:
        return type(err), str(err)
    return [(m, type(c), c) for m, c in terms.items()]


def _reference(text, field, names):
    """The reference parser's outcome, its raw terms stored as MultiPoly
    stores them: Fractions over Q."""
    def read():
        terms = ReferenceParser(text, field, names).parse()
        if field.modulus is None:
            return {m: Fraction(c) for m, c in terms.items()}
        return terms
    return _outcome(read)


@SETTINGS
@given(mutated(sums(0)))
def test_flat_reader_matches_recursive_descent(case):
    text, field, names = case
    assert _outcome(lambda: parse_poly(text, field, names).terms) == _reference(text, field, names)


@SETTINGS
@given(mutated(sums(2)))
def test_parenthesised_reader_matches_recursive_descent(case):
    text, field, names = case
    assert _outcome(lambda: parse_poly(text, field, names).terms) == _reference(text, field, names)


class _NoParenthesis:
    """Stands in for expr._OPEN and refuses to be tried."""

    def match(self, text, pos):
        raise AssertionError(f"the parenthesis pattern was tried at offset {pos}")


@SETTINGS
@given(sums(0))
def test_flat_sums_take_the_flat_path(case):
    """A flat sum, read or refused, is read by the factor pattern alone:
    the reader never tries the parenthesis pattern on it."""
    tokens, field, names = case
    text = "".join(tokens)
    reference = _reference(text, field, names)
    parenthesis, expr._OPEN = expr._OPEN, _NoParenthesis()
    try:
        outcome = _outcome(lambda: parse_poly(text, field, names).terms)
    finally:
        expr._OPEN = parenthesis
    assert outcome == reference
