"""Property tests: canonical text reparses to the polynomial it came from,
and the flat-sum reader agrees with the recursive-descent parser."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gridres import Field, MultiPoly, format_poly, parse_poly
from gridres.expr import _Parser, _read_flat
from gridres.multipoly import MAX_EXPONENT, MIN_EXPONENT, default_names

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


# -- the flat-sum reader against the recursive-descent parser --------------------

SPACES = st.sampled_from(["", "", " ", "\t", "\u3000"])
# inserted tokens: a stray sign, a zero denominator, an exponent one past the
# range, a non-ASCII digit, a non-ASCII letter, an underscore, a parenthesis,
# a tab, a run of whitespace and doubled operators
MUTANTS = ["^-", "/0", "2147483648", "\u0663", "\u00e9", "_", "(", "\t", " \t\u3000  ",
           "++", "--", "**", "+-", "*-", "^^", "//"]


@st.composite
def flat_sums(draw):
    """A flat sum as a token list, its field and variable names; the tokens
    of an operand or exponent are separate, so mutations can split them."""
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(1, 4))
    names = draw(st.sampled_from([default_names(nvars), ["\u00e9", "b1", "x", "_c"][:nvars]]))
    # a word may also be an alias (z1.., x/y/z) or unknown
    words = st.sampled_from(names + ["z1", "z2", "z01", "x", "y", "w"])
    exponents = st.one_of(st.integers(-3, 12), st.sampled_from([MIN_EXPONENT, MAX_EXPONENT]))
    tokens = []
    for i in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["", "-"] if i == 0 else ["+", "-"]))
        if sign:
            tokens += [sign, draw(SPACES)]
        for j in range(draw(st.integers(1, 4))):
            if j:
                tokens += [draw(SPACES), "*", draw(SPACES)]
            if draw(st.booleans()):
                tokens.append(str(draw(st.integers(0, 10 ** 12))))
                if draw(st.integers(0, 3)) == 0:
                    tokens += ["/", str(draw(st.integers(1, 30)))]
            else:
                tokens.append(draw(words))
                if draw(st.booleans()):
                    e = draw(exponents)
                    tokens += ["^", "-" if e < 0 else "", str(abs(e))]
        tokens.append(draw(SPACES))
    return tokens, field, names


@st.composite
def mutated_flat_sums(draw):
    tokens, field, names = draw(flat_sums())
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "swap"]))
        at = draw(st.integers(0, len(tokens) - 1))
        if kind == "insert":
            tokens.insert(at, draw(st.sampled_from(MUTANTS)))
        elif kind == "delete" and len(tokens) > 1:
            del tokens[at]
        elif kind == "swap" and at + 1 < len(tokens):
            tokens[at], tokens[at + 1] = tokens[at + 1], tokens[at]
    return "".join(tokens), field, names


def _outcome(read):
    """The terms with their order and coefficient types, or the error."""
    try:
        terms = read()
    except (ValueError, OverflowError, ZeroDivisionError) as err:
        return type(err), str(err)
    return [(m, type(c), c) for m, c in terms.items()]


def _stored(terms, field):
    """Raw terms as MultiPoly stores them: Fractions over Q."""
    if field.modulus is None:
        return {m: Fraction(c) for m, c in terms.items()}
    return terms


@SETTINGS
@given(mutated_flat_sums())
def test_flat_reader_matches_recursive_descent(case):
    text, field, names = case
    reference = _outcome(lambda: _stored(_Parser(text, field, names).parse(), field))
    flat = _read_flat(text, field.modulus, names)  # never raises
    if flat is not None:
        assert _outcome(lambda: _stored(flat, field)) == reference
    assert _outcome(lambda: parse_poly(text, field, names).terms) == reference


@SETTINGS
@given(flat_sums())
def test_flat_sums_take_the_flat_path(case):
    tokens, field, names = case
    text = "".join(tokens)
    reference = _outcome(lambda: _stored(_Parser(text, field, names).parse(), field))
    flat = _read_flat(text, field.modulus, names)
    # the reader hands over only what the parser refuses
    assert (flat is None) == (type(reference) is tuple)
    if flat is not None:
        assert _outcome(lambda: _stored(flat, field)) == reference
