"""Property test: canonical text reparses to the polynomial it came from."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gridres import Field, MultiPoly, format_poly, parse_poly
from gridres.multipoly import MAX_EXPONENT, MIN_EXPONENT

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
