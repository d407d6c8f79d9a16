from fractions import Fraction
from random import Random

import pytest

from gridres import (Field, FieldMismatchError, LatticePolytope, MultiPoly,
                     is_prime, parse_poly)
from gridres.field import _read_scalar

from helpers import random_element

F7 = Field.prime(7)
Q = Field.rationals()


def test_prime_field_ops():
    assert F7(3) + F7(5) == F7(1)
    assert F7(3) * F7(5) == F7(1)
    assert F7(2) - F7(5) == F7(4)
    assert -F7(3) == F7(4)


def test_rational_ops():
    assert Q("1/2") + Q("1/3") == Q("5/6")
    assert Q(Fraction(-3, 5)).inv() == Q("-5/3")
    assert Q(2) * Q("1/2") == Q.one


def test_not_equal_is_the_negated_equality():
    F5 = Field.prime(5)
    assert not (F7 != Field.prime(7))
    assert F7 != F5 and F7 != Q
    assert not (Q(1) != Q(1)) and not (Q(1) != 1) and not (1 != Q(1))
    assert Q(1) != Q(2) and Q(1) != 2 and F7(1) != F5(1)
    f = parse_poly("x + 1", Q, 1)
    assert not (f != parse_poly("1 + x", Q, 1)) and f != parse_poly("x", Q, 1)
    assert not (MultiPoly.constant(Q, 1, 1) != 1) and MultiPoly.constant(Q, 1, 1) != 2
    assert parse_poly("x", F7, 1) != parse_poly("x", F5, 1)
    box = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert not (box != LatticePolytope.from_points([(1, 1), (0, 0), (0, 1), (1, 0)]))
    assert box != LatticePolytope.from_points([(0, 0), (1, 1)])
    for value in (F7, F7(1), f, box):
        assert value != "x" and value != None  # noqa: E711


def test_inverse():
    assert F7(2).inv() == F7(4)
    with pytest.raises(ZeroDivisionError):
        F7(0).inv()
    with pytest.raises(ZeroDivisionError):
        Q(0).inv()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31, 101])
def test_inverse_exhaustive(p):
    field = Field.prime(p)
    for a in field.elements():
        if a.is_zero():
            continue
        assert a * a.inv() == field.one


@pytest.mark.parametrize("field", [F7, Q, Field.prime(10007)])
def test_field_axioms_randomized(field):
    rng = Random(5)
    for _ in range(200):
        a = random_element(rng, field)
        b = random_element(rng, field)
        c = random_element(rng, field)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + field.zero == a
        assert a * field.one == a
        assert a + (-a) == field.zero


def test_canonical_forms():
    assert F7(10).value == 3
    assert F7(-1).value == 6
    assert Q("4/6").value == Fraction(2, 3)
    assert Q(Fraction(-2, -4)).value == Fraction(1, 2)
    assert Q("-1/2").value.denominator == 2


def test_descriptor_mismatch():
    with pytest.raises(FieldMismatchError):
        F7(1) + Q(1)
    with pytest.raises(FieldMismatchError):
        Field.prime(5)(1) * F7(1)


def test_modulus_validation():
    with pytest.raises(ValueError, match="not prime"):
        Field.prime(10)
    with pytest.raises(ValueError, match="out of range"):
        Field.prime(1)
    with pytest.raises(ValueError, match="out of range"):
        Field.prime(1 << 31)
    Field.prime((1 << 31) - 1)  # Mersenne prime fits


def test_is_prime():
    assert is_prime(10007)
    assert is_prime(2)
    assert not is_prime(10011)
    assert not is_prime(0)
    assert not is_prime(1)


def test_ordering_and_hash():
    assert F7(2) < F7(5)
    assert sorted([Q("1/2"), Q("-3"), Q("1/3")]) == [Q("-3"), Q("1/3"), Q("1/2")]
    assert len({F7(2), F7(9), F7(16)}) == 1


def test_ordering_against_a_non_scalar_is_a_type_error():
    with pytest.raises(TypeError, match="not supported"):
        F7(1) < "a"
    with pytest.raises(TypeError, match="not supported"):
        sorted([F7(1), None])


def test_int_coercion_in_arithmetic():
    assert F7(3) + 5 == F7(1)
    assert 5 + F7(3) == F7(1)
    assert Q("1/2") * 2 == Q.one
    assert F7(3) == 10
    assert Q("1/2") == Fraction(1, 2)


def test_pow_negative_exponent():
    assert F7(2) ** -1 == F7(4)
    assert Q(2) ** -2 == Q("1/4")
    with pytest.raises(ZeroDivisionError):
        F7(0) ** -1


def _outcome(thunk):
    try:
        element = thunk()
    except (ValueError, ZeroDivisionError) as err:
        return type(err), str(err)
    return element.field, type(element.value), element.value


DECODED_STRINGS = [
    "0", "-0", "12", "-12", "007", "-007", "10007", "-10008", "1" * 40, "-" + "9" * 40,
    "9" * 4301,
    "+5", " 5", "5 ", "\t-3\n", "1_000", "-1_0", "_1", "1/2", "-3/6", "4/2", "2/0", "1/7",
    "14/7", "٣", "-٣", "１２", "²", "", "-", "--1", "1e3", "1.5",
    "- 1", "0x10", "1 2", "−5",
]


@pytest.mark.parametrize("field", [Q, F7, Field.prime(10007)])
def test_string_decoding_matches_fraction(field):
    # plain integers skip Fraction; the value, its type and every error must not change
    for text in DECODED_STRINGS:
        expected = _outcome(lambda: field(Fraction(text)))
        assert _outcome(lambda: field(text)) == expected, text


# -- the scalar reader against Fraction and the coercion of a Fraction ---------------

def _coerced(text: str, p):
    """The reference: Fraction(text), then the coercion of a Fraction into
    the field as it stood before the scalar reader, written out here."""
    value = Fraction(text)
    if p is None:
        return value
    if value.denominator % p == 0:
        raise ZeroDivisionError(f"denominator {value.denominator} vanishes mod {p}")
    return value.numerator * pow(value.denominator % p, -1, p) % p


def _read_outcome(read):
    try:
        value = read()
    except (ValueError, ZeroDivisionError) as err:
        return type(err), str(err)
    return type(value), value


SCALAR_EXAMPLES = DECODED_STRINGS + [
    "-3", "+3", "3/0", "-3/0", "0/0", "6/4", "-6/4", "-0/5", "0/5", "7/7", "14/7", "-7/14",
    "3/7", "1/14", "21/49", "3 / 4", "3/ 4", " 3/4", "3/4 ", "1_000/3", "1/1_0", "3/-4",
    "-3/-4", "+3/4", "3/+4", "1/٣", "٣/4", "3/4/5", "3//4", "/4", "3/", "", "1" * 4301 + "/3",
    "3/" + "1" * 4301, "0" * 50 + "7/" + "0" * 50 + "14",
]


@pytest.mark.parametrize("p", [None, 2, 7, 10007, 2 ** 31 - 1])
def test_scalar_reader_examples(p):
    field = Field.prime(p) if p else Q
    for text in SCALAR_EXAMPLES:
        expected = _read_outcome(lambda: _coerced(text, p))
        assert _read_outcome(lambda: _read_scalar(text, p)) == expected, text
        element = _read_outcome(lambda: field(text).value)
        assert element == expected, text


def test_scalar_reader_reduces_before_the_denominator_check():
    assert _read_scalar("7/7", 7) == 1
    assert _read_scalar("14/21", 7) == 2 * pow(3, -1, 7) % 7
    with pytest.raises(ZeroDivisionError, match="denominator 7 vanishes mod 7"):
        _read_scalar("3/7", 7)
    with pytest.raises(ZeroDivisionError, match=r"denominator 7 vanishes mod 7"):
        _read_scalar("6/14", 7)  # 3/7 once reduced
    assert _read_scalar("-0/5", None) == 0 and type(_read_scalar("-0/5", None)) is Fraction


@pytest.mark.parametrize("p", [None, 7, 10007])
def test_scalar_reader_matches_fraction(p):
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # signs, digits (ASCII and not), '/', '_', whitespace and letters, in any order
    pieces = st.sampled_from(["-", "+", "/", "_", " ", "\t", "0", "1", "7", "14", "49",
                              "٣", "１", "²", "e", ".", "x", "10007"])

    # and well-formed a or a/b, with multiples of p on either side
    numbers = st.integers(0, 10 ** 30) | st.integers(0, 50).map(lambda k: k * (p or 1))
    fractions = st.tuples(st.sampled_from(["", "-", "+"]), numbers,
                          st.none() | numbers).map(
        lambda t: f"{t[0]}{t[1]}" + ("" if t[2] is None else f"/{t[2]}"))

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.lists(pieces, max_size=8).map("".join) | fractions)
    def check(text):
        expected = _read_outcome(lambda: _coerced(text, p))
        assert _read_outcome(lambda: _read_scalar(text, p)) == expected

    check()
