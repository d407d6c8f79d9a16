import re
import signal
import time
from fractions import Fraction
from random import Random

import pytest

from gridres import Field, MultiPoly, ParseError, format_poly, parse_poly
from gridres.expr import MAX_DEPTH

from helpers import (element_terms, oracle_power, oracle_product, oracle_sum,
                     random_poly)

Q = Field.rationals()
F7 = Field.prime(7)


def test_parse_examples():
    f = parse_poly("3*x^2*y + x*y - 2", Q, 2)
    assert f.terms == parse_poly("x*y - 2 + 3*x^2*y", Q, 2).terms
    assert f.coefficient((2, 1)) == Q(3)

    laurent = parse_poly("z1^-1", Q, 1)
    assert laurent.coefficient((-1,)) == Q(1)

    assert parse_poly("(x + y)^2", Q, 2) == parse_poly("x^2 + 2*x*y + y^2", Q, 2)
    # any str.isspace() character separates tokens, here an ideographic space
    assert parse_poly("x\u3000+ y", Q, 2) == parse_poly("x + y", Q, 2)


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
    # an exponent error points just past a '-' sign if there is one, else at
    # the exponent's first digit; a zero denominator just past the '/'
    ("x^ 99999999999", 3, "exponent 99999999999 overflows"),
    ("x ^ 2147483648", 4, "exponent 2147483648 overflows"),
    ("x^\t-\t2147483649", 4, "exponent -2147483649 overflows"),
    ("1 /0", 3, "zero denominator"),
    ("x y", 2, "unexpected 'y'"),
    ("_x", 0, "expected a variable"),
    ("", 0, "expected a variable"),
    ("   ", 3, "expected a variable"),
    ("x_1", 0, "unknown variable 'x_1'"),
    # misplaced operators
    ("2x", 1, "unexpected 'x'"),
    ("x^2^3", 3, "unexpected '^'"),
    ("+x", 0, "expected a variable"),
    ("x*", 2, "expected a variable"),
    ("x*-y", 2, "expected a variable"),
    ("x - - y", 4, "expected a variable"),
    # a zero coefficient does not skip the name check
    ("-x*0*w", 5, "unknown variable 'w'"),
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
    assert format_poly(f) == "3*x^2*y + x*y - 2"
    assert format_poly(MultiPoly.zero(Q, 2)) == "0"
    assert format_poly(parse_poly("x^-1 + 1", Q, 1)) == "1 + x^-1"
    assert format_poly(parse_poly("-1/2*x + y", Q, 2)) == "-1/2*x + y"


def test_round_trip_randomized():
    rng = Random(77)
    for field in (Q, F7):
        for nvars in (1, 2, 3, 4):
            for _ in range(25):
                f = random_poly(rng, field, nvars, 4, 6)
                text = format_poly(f)
                assert parse_poly(text, field, nvars) == f


# -- differential test against field element arithmetic ---------------------------
#
# Trees are ("var", i), ("int", k), ("frac", a, b), ("sum", [(negated, tree)]),
# ("prod", [tree]) and ("pow", tree, e).  Each renders to text through the
# grammar levels and evaluates with the term-by-term oracles of helpers.py,
# which share no code with the parser's raw kernels.

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
    """The tree's terms as field elements, from the term-by-term oracles."""
    kind = tree[0]
    if kind == "var":
        return {tuple(int(i == tree[1]) for i in range(nvars)): field.one}
    if kind in ("int", "frac"):
        c = field(tree[1]) if kind == "int" else field(tree[1]) * field(tree[2]).inv()
        return {} if c.is_zero() else {(0,) * nvars: c}
    if kind == "sum":
        total = {}
        for negated, term in tree[1]:
            total = oracle_sum(total, _oracle(term, field, nvars), negate_b=negated)
        return total
    if kind == "prod":
        product = {(0,) * nvars: field.one}
        for factor in tree[1]:
            product = oracle_product(product, _oracle(factor, field, nvars))
        return product
    return oracle_power(_oracle(tree[1], field, nvars), tree[2], field, nvars)


@pytest.mark.parametrize("field", [Q, F7, Field.prime(10007)], ids=str)
def test_parser_matches_multipoly_oracle(field):
    rng = Random(f"parser-oracle-{field}")
    for _ in range(200):
        nvars = rng.randint(1, 3)
        tree = ("sum", [(rng.random() < 0.4, _random_tree(rng, nvars, 3))
                        for _ in range(rng.randint(1, 4))])
        text = _render_expr(rng, tree)
        parsed = parse_poly(text, field, nvars)
        assert element_terms(parsed) == _oracle(tree, field, nvars), text
        kind = Fraction if field == Q else int
        assert all(type(c) is kind for c in parsed.terms.values()), text
        if field.is_prime_field:
            assert all(0 < c < field.modulus for c in parsed.terms.values()), text


@pytest.mark.parametrize("text, error, detail", [
    ("x + 3/0*y", ParseError, 6),
    ("1/ 0", ParseError, 2),
    ("0^-1", ParseError, 3),
    ("(x - x)^-2", ParseError, 9),
    ("(x + 1)^-1", ParseError, 9),
    ("y*(x + y)^ -3", ParseError, 12),
    ("x^2147483648", ParseError, 2),
    ("x^- 99999999999", ParseError, 3),
    ("x^-2147483649", ParseError, 3),
    ("x^2000000000*x^2000000000", OverflowError, 4000000000),
    ("x^-2000000000*y*x^-2000000000", OverflowError, -4000000000),
    ("x^2147483647*x", OverflowError, 2147483648),
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
    # a '^' with no integer after it ends the factor before its product
    # overflows: the product is never formed
    ("x*y^2147483647*y^-*x", ParseError, 18),
    ("(x^2147483647 + y)*x^y", ParseError, 21),
    ("(x^2147483647 + y)*(x)^ y", ParseError, 24),
])
@pytest.mark.parametrize("field", [Q, F7, Field.prime(10007)], ids=str)
def test_error_parity(field, text, error, detail):
    with pytest.raises(error) as err:
        parse_poly(text, field, 2)
    if error is ParseError:
        assert err.value.position == detail
    else:
        assert str(err.value) == f"exponent {detail} exceeds signed 32-bit range"


# a literal exponent spans the signed 32-bit range MultiPoly holds, so the
# canonical text of its smallest exponent reparses
@pytest.mark.parametrize("field", [Q, F7, Field.prime(10007)], ids=str)
def test_smallest_exponent_reparses(field):
    f = MultiPoly.from_terms(field, 2, {(-2 ** 31, 0): 1})
    assert format_poly(f) == "x^-2147483648"
    assert parse_poly(format_poly(f), field, 2) == f
    assert parse_poly("x^\t-\t2147483648", field, 2) == f
    assert parse_poly("y^-2147483648*x^-1*x", field, 2).terms == {(0, -2 ** 31): 1}
    with pytest.raises(OverflowError, match="exponent -2147483649 exceeds"):
        parse_poly("x^-2147483648*x^-1", field, 2)
    with pytest.raises(ParseError, match="exponent -2147483649 overflows") as err:
        parse_poly("x^-2147483649", field, 2)
    assert err.value.position == 3


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


def test_overlong_literal_is_value_error():
    # int() refuses more than 4300 decimal digits
    with pytest.raises(ValueError, match="4300 digits") as err:
        parse_poly("1" * 4301, Q, 1)
    assert not isinstance(err.value, ParseError)


def test_token_classes_match_str_predicates():
    """The token pattern's \\w and \\S (the complement of \\s) are the
    predicates the grammar is stated in, str.isalnum() or "_" and
    str.isspace(), over the BMP."""
    word, space = re.compile(r"\w"), re.compile(r"\s")
    for code in range(0x10000):
        ch = chr(code)
        assert bool(word.fullmatch(ch)) == (ch.isalnum() or ch == "_"), hex(code)
        assert bool(space.fullmatch(ch)) == ch.isspace(), hex(code)


F10007 = Field.prime(10007)


def _powers(name, count):
    return " + ".join(f"{name}^{i}" for i in range(count))


@pytest.mark.parametrize("text, field, offset, message", [
    ("(x+1)^3000", F10007, 5, "power of a 2-term sum may expand to over 500 terms"),
    ("-5^-3210007", Q, 2, "power has a coefficient of about 9630021 bits"),
    ("(z1 + z1*x*1/7)^210007", F10007, 15, "power of a 2-term sum"),
    ("(2^50000*x + 1)^2", Q, 15, "power has a coefficient of about 100002 bits"),
    (f"x*({_powers('x', 400)})*({_powers('y', 300)})", F7, len(_powers("x", 400)) + 4,
     "product of 400 by 300 terms is over 100000 term pairs"),
], ids=["binomial", "rational", "aliased", "nested", "product"])
def test_expansion_over_the_bound_raises_at_its_operator(text, field, offset, message):
    started = time.process_time()
    with pytest.raises(ParseError) as err:
        parse_poly(text, field, 2)
    assert time.process_time() - started < 0.1
    assert err.value.position == offset and message in str(err.value)


@pytest.mark.parametrize("text, field, terms", [
    ("(x + 1)^499", F10007, 500),
    ("(x + y + 1)^29", F10007, 465),  # C(31, 2) possible terms
    ("2^50000*x", Q, 1),              # 100000 bits
    ("(-1*x)^2147483647", Q, 1),      # a unit coefficient has no bits to grow
    (f"({_powers('x', 400)})*({_powers('y', 250)})", F7, 100000),
], ids=["binomial", "trinomial", "rational", "unit", "product"])
def test_expansion_up_to_the_bound_parses(text, field, terms):
    assert len(parse_poly(text, field, 2).terms) == terms


# -- runs of variable and literal factors ------------------------------------------
#
# The reader keeps a product of variables and literals as one coefficient
# and one exponent list; the recursive-descent reference of helpers.py
# multiplies one term dict per factor, left to right.  These results were
# recorded on the latter and are pinned here.

@pytest.mark.parametrize("text, field, terms", [
    # a zero coefficient leaves no terms, so nothing after it is range-checked
    ("0*x^2000000000*x^2000000000", Q, {}),
    ("0*x^2000000000*x^2000000000", F7, {}),
    ("x^2000000000*0*x^2000000000", Q, {}),
    ("x*0^3*y^-2147483647*y^-2", Q, {}),
    ("2*x*(x - x)*x^2147483647*x", Q, {}),
    ("7*x*(y + 1)^2*3*x", F7, {}),
    ("0^0*x", Q, {(1, 0): 1}),
    ("0^0*x", F7, {(1, 0): 1}),
    ("2^-1*x", F7, {(1, 0): 4}),
    ("2^-1*x", Q, {(1, 0): Fraction(1, 2)}),
    ("3^70000*x", F7, {(1, 0): 4}),
    ("x^2147483647*x^-2147483647*y^-3*y^3", Q, {(0, 0): 1}),
    ("3/2*x^2*(x + y)*2/3*y^-1", Q, {(3, -1): 1, (2, 0): 1}),
    ("7/14*x", Q, {(1, 0): Fraction(1, 2)}),
    # whitespace and tabs around every operator
    (" - 3 / 2 * x ^ - 2 * y  +  y ^ 3 - 4 ", Q,
     {(-2, 1): Fraction(-3, 2), (0, 3): 1, (0, 0): -4}),
    (" - 3 / 2 * x ^ - 2 * y  +  y ^ 3 - 4 ", F7, {(-2, 1): 2, (0, 3): 1, (0, 0): 3}),
    ("\t-\tx\t^\t2\t*\t1\t/\t3\t", F7, {(2, 0): 2}),
])
def test_run_products_pinned(text, field, terms):
    assert parse_poly(text, field, 2).terms == terms


@pytest.mark.parametrize("text, field, error, message", [
    ("x^2000000000*x^2000000000*0", Q, OverflowError,
     "exponent 4000000000 exceeds signed 32-bit range"),
    ("x^2000000000*(x + 1)*x^2000000000", Q, OverflowError,
     "exponent 4000000001 exceeds signed 32-bit range"),
    ("x^2000000000*(x + 1)*x^2000000000", F7, OverflowError,
     "exponent 4000000001 exceeds signed 32-bit range"),
    ("x*y^-2147483647*y^-2", Q, OverflowError,
     "exponent -2147483649 exceeds signed 32-bit range"),
    ("0^-2*x", Q, ParseError, "negative power of a non-monomial at offset 3"),
    ("3^70000*x", Q, ParseError,
     "power has a coefficient of about 140000 bits, over 100000 at offset 1"),
    # the bound is on the factor, so a zero coefficient before it does not lift it
    ("0*3^70000", Q, ParseError,
     "power has a coefficient of about 140000 bits, over 100000 at offset 3"),
    ("7/14*x", F7, ZeroDivisionError, "inversion of zero field element"),
])
def test_run_errors_pinned(text, field, error, message):
    with pytest.raises(error) as err:
        parse_poly(text, field, 2)
    assert str(err.value) == message


def test_term_pairs_refused_at_the_first_star():
    # 100,001 terms times x: refused at the '*' before x, so the unknown q
    # after it is never read
    big = f"(({_powers('x', 400)})*({_powers('y', 250)}) + z)"
    with pytest.raises(ParseError) as err:
        parse_poly(big + "*x*q", Q, 3)
    assert err.value.position == len(big)
    assert "product of 100001 by 1 terms is over 100000 term pairs" in str(err.value)


@pytest.mark.parametrize("field", [Q, F7, F10007], ids=str)
def test_parse_does_no_element_arithmetic(field, elem_ops):
    rng = Random(f"elem-ops-{field}")
    texts = ["3/2*x^4*y^-1 - 5*x*(y + 2)^3 + 2^-3*z", "0^0*x*(x - y)^2*1/3*y"]
    texts += [_render_expr(rng, _random_tree(rng, 3, 3)) for _ in range(50)]
    # flat sums, read by the factor pattern alone
    texts += ["-3/2*x^4*y^-1 + 5*x*y^3*z - 2/9 + x*x*2*y^-2", "z1*z2^2 - 1/3*x*z3 + 0*y"]
    texts += [format_poly(random_poly(rng, field, 3, 6, 12)) for _ in range(20)]
    for text in texts:
        parse_poly(text, field, 3)
    assert not elem_ops


# a run of 40,000 spaces where no factor can be read: the reader tries each
# factor, and a parenthesis, only where the last one ended, so it stops
# there at once and gives the error
_SPACES = " " * 40_000


@pytest.mark.parametrize("text, offset, message", [
    ("x +" + _SPACES, 40_003, "expected a variable"),
    ("x*" + _SPACES, 40_002, "expected a variable"),
    (_SPACES + "?", 40_000, "expected a variable"),
    ("x^" + _SPACES + "y", 40_002, "expected an integer"),
    ("x^-" + _SPACES + "y", 40_003, "expected an integer"),
    ("x" + _SPACES + "^", 40_002, "expected an integer"),
    ("1/" + _SPACES + "x", 40_002, "expected an integer"),
    ("(x" + _SPACES, 40_002, re.escape("expected ')'")),
    ("(x)^" + _SPACES + "y", 40_004, "expected an integer"),
    ("x*(" + _SPACES + "+", 40_003, "expected a variable"),
], ids=["plus", "star", "lead", "power", "negative-power", "trailing-caret", "slash",
        "open", "group-power", "open-star"])
@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_long_whitespace_runs_fail_in_linear_time(text, offset, message):
    def too_slow(signum, frame):
        raise TimeoutError("parse_poly ran for over 1 s")

    # the regex engine checks for signals, so a slow scan fails, not hangs
    handler = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(ParseError, match=message) as err:
            parse_poly(text, Q, 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert err.value.position == offset


# 40,000 factors that the term pattern reads up to the end and then refuses
# (whitespace inside the term): the pattern is tried once, at the term start,
# and the factor loop reads the term; a pattern tried at every factor would
# take quadratic time.  So does a sum of 10,000 such terms.
_PRODUCT = "x" + "*x" * 40_000


@pytest.mark.parametrize("text, expected", [
    (_PRODUCT + " *y", {(40_001, 1): 1}),
    (_PRODUCT + " ^2", {(40_002, 0): 1}),
    (" + ".join(["x *y"] * 10_000), {(1, 1): 10_000}),
    (" - ".join(["2*x^3 *y"] * 10_001), {(3, 1): -19_998}),
], ids=["trailing-factor", "trailing-power", "sum", "signed-sum"])
@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_terms_refused_late_read_in_linear_time(text, expected):
    def too_slow(signum, frame):
        raise TimeoutError("parse_poly ran for over 1 s")

    handler = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        f = parse_poly(text, Q, 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert f.terms == {m: Fraction(c) for m, c in expected.items()}


def test_parenthesis_depth_bounded():
    deepest = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
    assert parse_poly(deepest, Q, 2) == parse_poly("x", Q, 2)
    # a closed parenthesis leaves the depth it opened
    assert parse_poly(f"{deepest} * {deepest}", Q, 2) == parse_poly("x^2", Q, 2)
    for depth in (MAX_DEPTH + 1, 10_000):
        with pytest.raises(ParseError, match="parentheses nested deeper than 100") as err:
            parse_poly("(" * depth + "x" + ")" * depth, Q, 2)
        assert err.value.position == MAX_DEPTH


# -- sympy as an independent oracle -------------------------------------------------

def _sympy_terms(expr, symbols) -> dict:
    """The expanded terms of a sympy expression as {exponent tuple: Fraction}."""
    import sympy
    out = {}
    for term in sympy.Add.make_args(sympy.expand(expr)):
        coeff, mono = term.as_coeff_Mul()
        powers = mono.as_powers_dict()
        assert set(powers) <= set(symbols) | {sympy.S.One}, term
        m = tuple(int(powers.get(s, 0)) for s in symbols)
        c = Fraction(int(coeff.p), int(coeff.q))
        if c:
            out[m] = out.get(m, 0) + c
    return out


def test_parser_matches_sympy_expansion():
    """Random expression trees expanded by sympy over Q, an oracle that
    shares no code with gridres.multipoly."""
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                            standard_transformations)
    rng = Random("parser-sympy")
    symbols = sympy.symbols("x y z")
    for _ in range(150):
        nvars = rng.randint(1, 3)
        tree = ("sum", [(rng.random() < 0.4, _random_tree(rng, nvars, 3))
                        for _ in range(rng.randint(1, 4))])
        text = _render_expr(rng, tree)
        # a literal a/b is one base in the grammar, two operands in Python
        python = re.sub(r"(\d+)/(\d+)", r"(\1/\2)", text)
        expr = parse_expr(python, local_dict=dict(zip(NAMES, symbols)),
                          transformations=standard_transformations + (convert_xor,))
        expected = _sympy_terms(expr, symbols[:nvars])
        assert parse_poly(text, Q, nvars).terms == expected, text
