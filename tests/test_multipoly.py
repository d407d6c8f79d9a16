from fractions import Fraction
from random import Random

import pytest

from gridres import Field, MultiPoly, parse_poly, vanishing_poly_from_nodes

from helpers import (assert_raw_canonical, element_terms, oracle_derivative,
                     oracle_evaluate, oracle_power, oracle_product, oracle_shift,
                     oracle_sum, random_element, random_laurent_poly, random_poly)

Q = Field.rationals()
F2 = Field.prime(2)
F7 = Field.prime(7)
F10007 = Field.prime(10007)


def P(text, field=Q, nvars=2):
    return parse_poly(text, field, nvars)


def test_ring_ops_examples():
    x_plus_y = P("x + y")
    x_minus_y = P("x - y")
    assert x_plus_y * x_minus_y == P("x^2 - y^2")
    f = P("3*x^2*y + x*y - 2")
    assert f + MultiPoly.zero(Q, 2) == f
    assert P("(x + 1)^2", F2) == P("x^2 + 1", F2)


def test_arity_and_field_mismatch():
    with pytest.raises(ValueError):
        P("x") + parse_poly("x", Q, 1)
    with pytest.raises(Exception):
        P("x") + P("x", F7)


def test_evaluate_examples():
    assert P("x^2*y").evaluate([Q(2), Q(3)]) == Q(12)
    assert P("3*x^2*y + x*y - 2").evaluate([Q(2), Q(1)]) == Q(12)
    with pytest.raises(ZeroDivisionError):
        parse_poly("x^-1", Q, 1).evaluate([Q(0)])


def test_evaluation_is_ring_homomorphism():
    rng = Random(3)
    for field in (Q, F7):
        for _ in range(50):
            f = random_poly(rng, field, 2, 4, 5)
            g = random_poly(rng, field, 2, 4, 5)
            pt = [random_element(rng, field), random_element(rng, field)]
            assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
            assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)


def test_coefficient_examples():
    f = P("3*x^2*y + x*y - 2")
    assert f.coefficient((2, 1)) == Q(3)
    assert f.coefficient((5, 5)) == Q(0)
    assert P("x^3 - y^3").coefficient((3, 0)) == Q(1)


def test_coefficient_round_trip():
    rng = Random(4)
    for _ in range(30):
        f = random_poly(rng, Q, 3, 3, 6)
        for m, c in f.terms.items():
            assert f.coefficient(m) == c
        assert f.coefficient((9, 9, 9)).is_zero()


def test_total_degree():
    assert P("3*x^2*y + x*y - 2").total_degree() == 3
    assert MultiPoly.zero(Q, 2).total_degree() == -1
    with pytest.raises(ValueError):
        parse_poly("x^-1", Q, 1).total_degree()


def test_partial_derivative():
    assert P("x^2*y").partial_derivative(0) == P("2*x*y")
    assert P("x^2").partial_derivative(1) == MultiPoly.zero(Q, 2)
    assert parse_poly("x^2", F2, 1).partial_derivative(0) == MultiPoly.zero(F2, 1)
    # Laurent terms differentiate formally
    assert parse_poly("x^-2", Q, 1).partial_derivative(0) == parse_poly("-2*x^-3", Q, 1)
    with pytest.raises(IndexError):
        P("x").partial_derivative(5)


def test_vanishing_poly_examples():
    assert vanishing_poly_from_nodes([Q(0), Q(1)]) == parse_poly("x^2 - x", Q, 1)
    assert vanishing_poly_from_nodes([F7(1), F7(2), F7(4)]) == parse_poly("x^3 - 1", F7, 1)
    with pytest.raises(ValueError, match="duplicate"):
        vanishing_poly_from_nodes([Q(0), Q(0)])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31])
def test_vanishing_poly_exhaustive(p):
    field = Field.prime(p)
    rng = Random(p)
    nodes = sorted(rng.sample(range(p), min(p, 4)))
    nodes = [field(a) for a in nodes]
    poly = vanishing_poly_from_nodes(nodes)
    assert poly.total_degree() == len(nodes)
    assert poly.coefficient((len(nodes),)) == field.one
    for a in field.elements():
        value = poly.evaluate([a])
        assert value.is_zero() == (a in nodes)


def test_canonical_equality():
    f = MultiPoly.from_terms(Q, 2, {(1, 0): 1, (0, 0): 0})
    g = MultiPoly.from_terms(Q, 2, {(1, 0): 1})
    assert f == g
    assert f.terms == g.terms
    assert P("x + y") != P("x - y")


def test_exponent_overflow():
    big = MultiPoly.from_terms(Q, 1, {((1 << 30),): 1})
    with pytest.raises(OverflowError):
        big * big


def test_pow():
    assert P("x + 1") ** 3 == P("x^3 + 3*x^2 + 3*x + 1")
    assert P("x*y") ** 0 == MultiPoly.constant(Q, 2, 1)
    with pytest.raises(ValueError):
        P("x + 1") ** -1
    assert parse_poly("2*x", Q, 1) ** -2 == parse_poly("1/4*x^-2", Q, 1)


def test_support_order_is_graded_lex():
    f = P("x^2 + y^2 + x*y + x + 1")
    assert f.support() == [(0, 0), (1, 0), (0, 2), (1, 1), (2, 0)]


def _checked(f: MultiPoly) -> dict:
    assert_raw_canonical(f)
    return element_terms(f)


@pytest.mark.parametrize("field", [Q, F7, F10007], ids=str)
def test_ring_ops_match_element_oracle(field):
    """The raw kernels against term-by-term field element arithmetic, on
    Laurent polynomials whose sums and products cancel."""
    rng = Random(f"ring-oracle-{field}")
    for _ in range(150):
        n = rng.randint(1, 3)
        f = random_laurent_poly(rng, field, n)
        g = random_laurent_poly(rng, field, n)
        # a share of f's terms negated in g, so f + g and f * g cancel
        g = g + MultiPoly.from_terms(
            field, n, {m: -c for m, c in f.terms.items() if rng.random() < 0.5})
        a, b = _checked(f), _checked(g)
        assert _checked(f + g) == oracle_sum(a, b)
        assert _checked(f - g) == oracle_sum(a, b, negate_b=True)
        assert _checked(-f) == oracle_sum({}, a, negate_b=True)
        assert _checked(f * g) == oracle_product(a, b)
        scalar = random_element(rng, field)
        assert _checked(f * scalar) == oracle_product(a, {(0,) * n: scalar})
        e = rng.randint(0, 3)
        assert _checked(f ** e) == oracle_power(a, e, field, n)
        mono = random_laurent_poly(rng, field, n, max_terms=1)
        if len(mono.terms) == 1:
            e = rng.choice((-3, -2, -1, 1, 2))
            assert _checked(mono ** e) == oracle_power(element_terms(mono), e, field, n)
        i = rng.randrange(n)
        assert _checked(f.partial_derivative(i)) == oracle_derivative(a, i)
        offset = tuple(rng.randint(-4, 4) for _ in range(n))
        assert _checked(f.shift(offset)) == oracle_shift(a, offset)
        point = [random_element(rng, field) for _ in range(n)]
        try:
            expected = oracle_evaluate(a, field, point)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                f.evaluate(point)
        else:
            value = f.evaluate(point)
            assert value == expected and type(value.value) is type(expected.value)


B = 1 << 30


def _overflow_cases(field):
    f = MultiPoly.from_terms(field, 2, {(1, 0): 1, (B, -5): 2, (3, -B): 3})
    g = MultiPoly.from_terms(field, 2, {(0, -B - 7): 5, (0, 1): 1, (B, 0): 4})
    return [
        # the first term pair out of range, in the order the factors give
        (lambda: f * g, 2147483648),
        (lambda: g * f, -2147483655),
        (lambda: MultiPoly.from_terms(field, 2, {(B, 1): 1})
         * MultiPoly.from_terms(field, 2, {(B, 2): 3}), 2147483648),
        (lambda: MultiPoly.from_terms(field, 2, {(1, 0): 1, (0, 1500000000): 1}) ** 2,
         3000000000),
        # the first square out of range, 5 * 2^29, as repeated squaring meets it
        (lambda: MultiPoly.from_terms(field, 2, {(1, 5): 2}) ** 900000000, 2684354560),
        (lambda: MultiPoly.from_terms(field, 2, {(-3, 1): 2}) ** -1000000000, 3000000000),
        (lambda: MultiPoly.from_terms(field, 2, {(3, -5): 2}) ** -1000000000, -3000000000),
        (lambda: f.shift((B, B)), 2147483648),
        (lambda: g.shift((-B, -B)), -2147483655),
        (lambda: parse_poly("(x + y^-1500000000)*(1 + y^-1500000000)", field, 2),
         -3000000000),
        (lambda: parse_poly("(x + y)^3*x^2147483645", field, 2), 2147483648),
    ]


@pytest.mark.parametrize("field", [Q, F7, F10007], ids=str)
def test_exponent_overflow_texts(field):
    for build, exponent in _overflow_cases(field):
        with pytest.raises(OverflowError) as err:
            build()
        assert str(err.value) == f"exponent {exponent} exceeds signed 32-bit range"


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_fraction_scalars_are_coerced(field):
    f = P("x*y + 3", field)
    half = Fraction(1, 2)
    assert f + half == f + field(half) == half + f
    assert f - half == f - field(half) == -(half - f)
    assert f * half == f * field(half) == half * f
    assert P("1/2", field) == half and half == P("1/2", field)
    assert P("x", field) != half


def test_fraction_scalar_with_vanishing_denominator_raises():
    f = P("x + 1", F7)
    for op in (f.__add__, f.__sub__, f.__mul__, f.__eq__):
        with pytest.raises(ZeroDivisionError, match="denominator 14 vanishes mod 7"):
            op(Fraction(3, 14))
