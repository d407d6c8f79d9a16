import re
from fractions import Fraction
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


# -- differential test against MultiPoly arithmetic ------------------------------
#
# Trees are ("var", i), ("int", k), ("frac", a, b), ("sum", [(negated, tree)]),
# ("prod", [tree]) and ("pow", tree, e).  Each renders to text through the
# grammar levels and evaluates with MultiPoly + - * **, the slow oracle.

NAMES = ["x", "y", "z"]


def _monomial_tree(rng, nvars):
    """A single nonzero term, so that negative powers are legal."""
    factors = [("int", rng.randint(1, 6)) if rng.random() < 0.5
               else ("frac", rng.randint(1, 6), rng.randint(1, 6))]
    factors += [("var", rng.randrange(nvars)) for _ in range(rng.randint(0, 2))]
    tree = factors[0] if len(factors) == 1 else ("prod", factors)
    return ("pow", tree, rng.randint(-3, 3)) if rng.random() < 0.5 else tree


def _random_tree(rng, nvars, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        kind = rng.randrange(4)
        if kind == 0:
            return ("int", rng.randint(0, 12))
        if kind == 1:
            return ("frac", rng.randint(0, 12), rng.randint(1, 6))
        return ("var", rng.randrange(nvars))
    if roll < 0.5:
        terms = [(rng.random() < 0.4, _random_tree(rng, nvars, depth - 1))
                 for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:  # a cancelling pair
            negated, tree = rng.choice(terms)
            terms.append((not negated, tree))
        return ("sum", terms)
    if roll < 0.75:
        return ("prod", [_random_tree(rng, nvars, depth - 1)
                         for _ in range(rng.randint(2, 3))])
    if roll < 0.88:
        return ("pow", _random_tree(rng, nvars, depth - 1), rng.randint(0, 3))
    return _monomial_tree(rng, nvars)


def _space(rng):
    return rng.choice(("", "", " ", "  "))


def _render_base(rng, tree):
    kind = tree[0]
    if kind == "var":
        return NAMES[tree[1]]
    if kind == "int":
        return str(tree[1])
    if kind == "frac":
        return f"{tree[1]}/{tree[2]}"
    return "(" + _space(rng) + _render_expr(rng, tree) + _space(rng) + ")"


def _render_factor(rng, tree):
    if tree[0] == "pow":
        sign = "-" + _space(rng) if tree[2] < 0 else ""
        return (_render_base(rng, tree[1]) + _space(rng) + "^" + _space(rng)
                + sign + str(abs(tree[2])))
    return _render_base(rng, tree)


def _render_term(rng, tree):
    if tree[0] == "prod":
        glue = _space(rng) + "*" + _space(rng)
        return glue.join(_render_factor(rng, t) for t in tree[1])
    return _render_factor(rng, tree)


def _render_expr(rng, tree):
    if tree[0] != "sum":
        return _render_term(rng, tree)
    out = ""
    for i, (negated, term) in enumerate(tree[1]):
        if i:
            out += _space(rng) + ("-" if negated else "+") + _space(rng)
        elif negated:
            out += "-" + _space(rng)
        out += _render_term(rng, term)
    return out


def _oracle(tree, field, nvars):
    kind = tree[0]
    if kind == "var":
        return MultiPoly.variable(field, nvars, tree[1])
    if kind == "int":
        return MultiPoly.constant(field, nvars, tree[1])
    if kind == "frac":
        return MultiPoly.constant(field, nvars, field(tree[1]) * field(tree[2]).inv())
    if kind == "sum":
        total = MultiPoly.zero(field, nvars)
        for negated, term in tree[1]:
            value = _oracle(term, field, nvars)
            total = total - value if negated else total + value
        return total
    if kind == "prod":
        product = MultiPoly.constant(field, nvars, 1)
        for factor in tree[1]:
            product = product * _oracle(factor, field, nvars)
        return product
    return _oracle(tree[1], field, nvars) ** tree[2]


@pytest.mark.parametrize("field", [Q, F7, Field.prime(10007)], ids=str)
def test_parser_matches_multipoly_oracle(field):
    rng = Random(f"parser-oracle-{field}")
    for _ in range(200):
        nvars = rng.randint(1, 3)
        tree = ("sum", [(rng.random() < 0.4, _random_tree(rng, nvars, 3))
                        for _ in range(rng.randint(1, 4))])
        text = _render_expr(rng, tree)
        expected = _oracle(tree, field, nvars)
        parsed = parse_poly(text, field, nvars)
        assert parsed == expected, text
        kind = Fraction if field == Q else int
        assert all(type(c.value) is kind for c in parsed.terms.values()), text
        if field.is_prime_field:
            assert all(0 < c.value < field.modulus for c in parsed.terms.values()), text


@pytest.mark.parametrize("text, error, detail", [
    ("x + 3/0*y", ParseError, 6),
    ("1/ 0", ParseError, 2),
    ("0^-1", ParseError, 3),
    ("(x - x)^-2", ParseError, 9),
    ("(x + 1)^-1", ParseError, 9),
    ("y*(x + y)^ -3", ParseError, 12),
    ("x^2147483648", ParseError, 2),
    ("x^- 99999999999", ParseError, 3),
    ("x^-2147483648", ParseError, 3),
    ("x^2000000000*x^2000000000", OverflowError, 4000000000),
    ("x^-2000000000*y*x^-2000000000", OverflowError, -4000000000),
    ("(x + y^1500000000)^2", OverflowError, 3000000000),
    ("(x^-3)^-1000000000", OverflowError, 3000000000),
    # the first square of y^5 out of range, 5 * 2^29, as repeated squaring meets it
    ("(x*y^5)^900000000", OverflowError, 2684354560),
    # digits are ASCII 0-9 only
    ("x^\u00b2", ParseError, 2),
    ("\u00b2", ParseError, 0),
    ("1/\u00b2", ParseError, 2),
    ("x + z\u00b2", ParseError, 4),
    ("z\u0661*x", ParseError, 0),
])
@pytest.mark.parametrize("field", [Q, F7, Field.prime(10007)], ids=str)
def test_error_parity(field, text, error, detail):
    with pytest.raises(error) as err:
        parse_poly(text, field, 2)
    if error is ParseError:
        assert err.value.position == detail
    else:
        assert str(err.value) == f"exponent {detail} exceeds signed 32-bit range"


@pytest.mark.parametrize("text", ["z\u00b2", "z\u0661"])
def test_non_ascii_digits_are_not_aliases(text):
    with pytest.raises(ParseError, match=re.escape(f"unknown variable {text!r}")):
        parse_poly(text, Q, 2)


# 7/14 fails over F_7: the raw denominator is inverted, not that of 1/2
@pytest.mark.parametrize("text, field", [
    ("x + 1/7", F7), ("7/14*y", F7), ("2/10007*x", Field.prime(10007))])
def test_denominator_vanishing_mod_p(text, field):
    with pytest.raises(ZeroDivisionError, match="inversion of zero field element"):
        parse_poly(text, field, 2)


def test_zero_literal_power_over_prime_field():
    with pytest.raises(ParseError, match="non-monomial") as err:
        parse_poly("7^-1", F7, 1)
    assert err.value.position == 3
    assert parse_poly("7^-1", Field.prime(10007), 1) == parse_poly("7148", Field.prime(10007), 1)
