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


# -- where the term pattern stops part way ----------------------------------------

# Each text puts a term that the term pattern matches only in part, or
# reads and hands back, between terms it reads whole; the factor loop must
# then read it exactly as the reference does: the same terms, or the same
# error type, message and offset.
TERM_BOUNDARIES = [
    "2*x*(y + 1) - x", "x + 3*(x - y)^2*y - 1", "x*y^-2 + 1", "x + 3*x^-1*y - y",
    "2/x + y", "x - 2/3/4*y", "x*2 + y", "x + y*1/2", "x * y - 1", "x + 2 *y - y* x",
    "x + w*y", "x + y*w - 1", "x + z1*y", "x - z2^3", "x^2147483647*x + y",
    "y + x*x^2147483647", "0*x^2147483648 + y", "x + 0*y^2147483647*y", "y + 7*x^2147483647*x",
    "x + 7/14*y", "x + 3/0*y", "x - 0/5*y", "2^3*x + y", "x^2^3 + y", "x*y^ + 1", "x + y*",
    "x + +y", "+x - y", "-x - -y", "x - 00012*y^007", "x + ٣*y", "x + y^٣",
    "xé + y", "x + y) - 1", "(x + 2*y) - 3*x*y",
]


@pytest.mark.parametrize("text", TERM_BOUNDARIES)
@pytest.mark.parametrize("names", [["x", "y"], ["x", "y", "é"]], ids=["xy", "xy-accent"])
def test_term_pattern_hand_over_matches_reference(text, names):
    for field in FIELDS:
        outcome = _outcome(lambda: parse_poly(text, field, names).terms)
        assert outcome == _reference(text, field, names), (text, field)


def test_term_pattern_boundary_errors():
    """A few of the outcomes above, pinned: the errors come from the factor
    loop, at the offsets it has always given."""
    F7 = Field.prime(7)
    cases = [("x + 7/14*y", F7, ZeroDivisionError, "inversion of zero field element"),
             ("x + 3/0*y", F7, expr.ParseError, "zero denominator at offset 6"),
             ("x^2147483647*x + y", F7, OverflowError,
              "exponent 2147483648 exceeds signed 32-bit range"),
             ("0*x^2147483648 + y", F7, expr.ParseError,
              "exponent 2147483648 overflows 32 bits at offset 4"),
             ("x + w*y", F7, expr.ParseError, "unknown variable 'w' at offset 4")]
    for text, field, kind, message in cases:
        with pytest.raises(kind) as err:
            parse_poly(text, field, ["x", "y"])
        assert str(err.value) == message
    # a zero coefficient skips the sum of its exponents, as before
    assert parse_poly("x + 0*y^2147483647*y", F7, ["x", "y"]).terms == {(1, 0): 1}
    assert parse_poly("y + 7*x^2147483647*x", F7, ["x", "y"]).terms == {(0, 1): 1}
    # a literal after a name, and an alias of another name list
    assert parse_poly("x*2 + y", F7, ["x", "y"]).terms == {(1, 0): 2, (0, 1): 1}
    assert parse_poly("a + z1*b", F7, ["a", "b"]).terms == {(1, 0): 1, (1, 1): 1}


class _NoFactor:
    """Stands in for expr._FACTOR and refuses to be tried."""

    def match(self, text, pos):
        raise AssertionError(f"the factor pattern was tried at offset {pos}")


@SETTINGS
@given(laurent_polys())
def test_canonical_text_is_read_term_by_term(f):
    """Canonical text with no negative exponent is read by the term pattern
    alone: the factor pattern is never tried on it."""
    f = MultiPoly.from_terms(f.field, f.nvars, {
        tuple(min(abs(e), MAX_EXPONENT) for e in m): c for m, c in f.terms.items()})
    text = format_poly(f)
    factor, expr._FACTOR = expr._FACTOR, _NoFactor()
    try:
        g = parse_poly(text, f.field, f.nvars)
    finally:
        expr._FACTOR = factor
    assert g.terms == f.terms
