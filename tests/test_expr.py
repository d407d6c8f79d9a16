import re
from random import Random

import pytest

from gridres import Field, MultiPoly, ParseError, parse_poly, poly_to_string

from helpers import random_poly

Q = Field.rationals()
F7 = Field.prime(7)


def test_parse_examples():
    f = parse_poly("3*x^2*y + x*y - 2", Q, 2)
    assert f.terms == parse_poly("x*y - 2 + 3*x^2*y", Q, 2).terms
    assert f.coefficient((2, 1)) == Q(3)

    laurent = parse_poly("z1^-1", Q, 1)
    assert laurent.coefficient((-1,)) == Q(1)

    assert parse_poly("(x + y)^2", Q, 2) == parse_poly("x^2 + 2*x*y + y^2", Q, 2)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("x**", Q, 1)
    assert err.value.position == 2

    with pytest.raises(ParseError, match="unknown variable"):
        parse_poly("x + w", Q, 2)

    with pytest.raises(ParseError, match="overflow"):
        parse_poly("x^99999999999", Q, 1)

    with pytest.raises(ParseError):
        parse_poly("x + ", Q, 1)
    with pytest.raises(ParseError):
        parse_poly("(x + 1", Q, 1)


@pytest.mark.parametrize("text, offset, message", [
    ("x + + y", 4, "expected a variable"),
    ("x - (y + ", 9, "expected a variable"),
    ("-(x + y))", 8, "unexpected ')'"),
    ("x + 2*y -", 9, "expected a variable"),
    ("- - x", 2, "expected a variable"),
    ("(x - y) + (y - z", 16, "expected ')'"),
    ("x + y^-", 7, "expected an integer"),
    ("3 - 1/0*x", 6, "zero denominator"),
    ("x + w - y", 4, "unknown variable 'w'"),
    ("x*(y + z) - )", 12, "expected a variable"),
])
def test_parse_error_offsets_in_sums(text, offset, message):
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        parse_poly(text, Q, 3)
    assert err.value.position == offset


def test_variable_aliases():
    assert parse_poly("z2", Q, 3) == parse_poly("y", Q, 3)
    f = parse_poly("z1*z4", Q, 4)
    assert f.coefficient((1, 0, 0, 1)) == Q(1)
    with pytest.raises(ParseError, match="unknown variable"):
        parse_poly("x", Q, 4)


def test_leading_minus_and_fractions():
    assert parse_poly("-2*x + 1", Q, 1) == parse_poly("1 - 2*x", Q, 1)
    f = parse_poly("5/6*x", Q, 1)
    assert f.coefficient((1,)) == Q("5/6")
    assert parse_poly("3/2", F7, 1) == parse_poly("5", F7, 1)
    with pytest.raises(ParseError, match="zero denominator"):
        parse_poly("1/0", Q, 1)


def test_long_sum_matches_from_terms():
    rng = Random(5)
    for field in (Q, F7):
        terms = {}
        for _ in range(600):
            mono = tuple(rng.randint(0, 6) for _ in range(3))
            terms[mono] = terms.get(mono, 0) + rng.randint(-9, 9)
        text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*x^{a}*y^{b}*z^{e}"
                        for (a, b, e), c in terms.items()).removeprefix("+ ")
        expected = MultiPoly.from_terms(field, 3, terms)
        assert parse_poly(text, field, 3) == expected
        assert parse_poly(text, field, 3).terms == expected.terms


def test_sum_cancellation():
    for text in ("x - x", "-x + x", "x + y - (x + y)", "3*x - 2*x - x",
                 "(x - y) - (x - y) + 0"):
        f = parse_poly(text, Q, 2)
        assert f.is_zero() and f.terms == {}
    # 7 == 0 over F_7: the zero coefficient is dropped, the other term kept
    assert parse_poly("3*x + 4*x + y", F7, 2).terms == parse_poly("y", F7, 2).terms


def test_leading_minus_and_nested_parentheses():
    assert parse_poly("-x^2 + y", Q, 2) == parse_poly("y - x^2", Q, 2)
    assert parse_poly("-(x - (y - (1 - x)))", Q, 2) == parse_poly("y - 1", Q, 2)
    assert parse_poly("-(-(-(x)))", Q, 1) == parse_poly("-x", Q, 1)
    assert parse_poly("-(x + y)*(x - y)", Q, 2) == parse_poly("y^2 - x^2", Q, 2)
    assert parse_poly("((x)) - ((-y) - (x))", Q, 2) == parse_poly("2*x + y", Q, 2)


def test_negative_power_of_sum_rejected():
    with pytest.raises(ParseError, match="non-monomial"):
        parse_poly("(x + 1)^-1", Q, 1)


def test_print_canonical():
    f = parse_poly("x*y - 2 + 3*x^2*y", Q, 2)
    assert poly_to_string(f) == "3*x^2*y + x*y - 2"
    assert poly_to_string(MultiPoly.zero(Q, 2)) == "0"
    assert poly_to_string(parse_poly("x^-1 + 1", Q, 1)) == "1 + x^-1"
    assert poly_to_string(parse_poly("-1/2*x + y", Q, 2)) == "-1/2*x + y"


def test_round_trip_randomized():
    rng = Random(77)
    for field in (Q, F7):
        for nvars in (1, 2, 3, 4):
            for _ in range(25):
                f = random_poly(rng, field, nvars, 4, 6)
                text = poly_to_string(f)
                assert parse_poly(text, field, nvars) == f
