"""Property tests: the pencil points that certify `lines-check`'s dependence
detect every nonzero form of degree n, over Q and over F_p with p >= n; and
the raw-triple kernels of the lines layer (the scaler, the grid join and the
pencil products) agree with generic references over F_5, F_7, F_101 and Q."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from gridres import (Field, LineConfiguration, MultiPoly, ProjLine, grid_intersections, meet,
                     roots_of_unity_config, verify_product_dependence)
from gridres.lines import _pencil_points
from gridres.polytope import _dot
from gridres.projective import _scaled

from helpers import _det3, assert_raw_triple, product_form

Q = Field.rationals()
FIELDS = [Field.prime(p) for p in (2, 3, 5, 7)] + [Q]

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def forms(draw):
    """A field, a degree n (p = n included) and a nonzero form of degree n:
    a combination of up to three products of n lines (the product oracle).
    Lines are drawn at random or from the pencil lines x = a*z (a < n) and
    z = 0 that carry P_n, so some products vanish on most of it."""
    field = draw(st.sampled_from(FIELDS))
    p = field.modulus
    n = draw(st.integers(1, p if p else 6))
    coord = st.integers(0, p - 1) if p else st.integers(-3, 3)
    random_line = st.tuples(coord, coord, coord).filter(any)
    pencil_line = st.one_of(st.builds(lambda a: (1, 0, -a), st.integers(0, n - 1)),
                            st.just((0, 0, 1)))
    line = st.one_of(random_line, pencil_line, pencil_line)
    form = MultiPoly.zero(field, 3)
    for _ in range(draw(st.integers(1, 3))):
        family = draw(st.lists(line, min_size=n, max_size=n))
        form = form + field(draw(coord)) * product_form([ProjLine(field, t) for t in family])
    assume(not form.is_zero())
    return field, n, form


@SETTINGS
@given(forms())
def test_no_nonzero_form_of_degree_n_vanishes_on_the_pencil_points(case):
    field, n, form = case
    assert any(not form.evaluate(q).is_zero() for q in _pencil_points(n)), (field, n, form)


# -- the raw-triple kernels against their generic references -----------------

ORACLE_FIELDS = [Field.prime(p) for p in (5, 7, 101)] + [Q]
ORACLE_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def generic_scaled(p, vec) -> tuple:
    """The generic scaler: reduce, then divide by the first nonzero entry."""
    if p:
        vec = [x % p for x in vec]
    for lead in vec:
        if lead:
            if p:
                inv = pow(lead, -1, p)
                return tuple(x * inv % p for x in vec)
            if type(lead) is int:
                lead = Fraction(lead)
            return tuple(x / lead for x in vec)
    raise ValueError("all-zero homogeneous triple")


def meet_grid(red, blue) -> tuple:
    """grid_intersections by one `meet` per red-blue pair, on ProjPoints."""
    red, blue = list(red), list(blue)
    if not red or not blue:
        raise ValueError("both families must be nonempty")
    if len(set(red)) != len(red):
        raise ValueError("repeated red line")
    if len(set(blue)) != len(blue):
        raise ValueError("repeated blue line")
    shared = set(red) & set(blue)
    if shared:
        raise ValueError(f"line {sorted(shared)[0]} is both red and blue")
    seen = {}
    for i, r in enumerate(red):
        for j, b in enumerate(blue):
            q = meet(r, b)
            if q in seen:
                pi, pj = seen[q]
                raise ValueError(
                    f"intersections coincide at {q}: red {pi} x blue {pj} "
                    f"and red {i} x blue {j} (grid is not transversal)")
            seen[q] = (i, j)
    return tuple(sorted(seen))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as err:  # the type and the message are compared
        return type(err), str(err)


def entries(field, low, high):
    """Raw entries: ints over F_p (negative and >= p too); ints and a/b
    Fractions over Q."""
    if field.modulus:
        return st.integers(low, high)
    return st.one_of(st.integers(low, high),
                     st.builds(Fraction, st.integers(low, high), st.integers(1, 4)))


@ORACLE_SETTINGS
@given(st.data())
def test_scaled_matches_the_generic_scaler(data):
    field = data.draw(st.sampled_from(ORACLE_FIELDS))
    p = field.modulus
    bound = 3 * p if p else 9
    entry = st.one_of(st.just(0), st.sampled_from((p, -p)) if p else st.just(0),
                      entries(field, -bound, bound))
    vec = data.draw(st.tuples(entry, entry, entry))
    got, want = outcome(_scaled, p, vec), outcome(generic_scaled, p, vec)
    assert got == want, (field, vec)
    if got[0] == "ok":
        assert [type(c) for c in got[1]] == [type(c) for c in want[1]], (field, vec)


@st.composite
def line_families(draw):
    """Red and blue families of 1-4 lines with small entries, so shared
    lines and coincident meets occur; now and then a family may repeat a
    line, or one line is over another field."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    coord = entries(field, -2, 2)
    line = st.tuples(coord, coord, coord).filter(any).map(lambda t: ProjLine._raw(field, t))
    unique = draw(st.integers(0, 4)) > 0
    red = draw(st.lists(line, min_size=1, max_size=4, unique=unique))
    blue = draw(st.lists(line, min_size=1, max_size=4, unique=unique))
    if draw(st.integers(0, 4)) == 0:
        family = draw(st.sampled_from((red, blue)))
        other = draw(st.sampled_from([f for f in ORACLE_FIELDS if f != field]))
        family[draw(st.integers(0, len(family) - 1))] = ProjLine._raw(other, (1, 2, 3))
    return red, blue


@ORACLE_SETTINGS
@given(line_families())
def test_grid_intersections_match_pairwise_meets(case):
    red, blue = case
    got, want = outcome(grid_intersections, red, blue), outcome(meet_grid, red, blue)
    assert got == want, case
    if got[0] == "ok":
        for q in got[1]:
            assert_raw_triple(q)


@st.composite
def concurrent_covers(draw):
    """A valid cover with concurrent greens: the subgroup model over F_p
    (n | p - 1) or the unit square and its diagonals over Q, moved by a
    random invertible map (each line l becomes l.M) with shuffled families."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    p = field.modulus
    if p:
        n = draw(st.sampled_from([n for n in range(2, 11) if (p - 1) % n == 0]))
        base = roots_of_unity_config(field, n)
        families = (base.red, base.blue, base.green)
    else:
        families = [[ProjLine._raw(Q, t) for t in family] for family in (
            ((1, 0, 0), (1, 0, -1)), ((0, 1, 0), (0, 1, -1)), ((1, -1, 0), (1, 1, -1)))]
    coord = entries(field, -3, 3)
    m = draw(st.tuples(*[st.tuples(coord, coord, coord)] * 3).filter(
        lambda m: field(_det3(*m)) != field.zero))
    moved = [draw(st.permutations([ProjLine._raw(field, [_dot(l.coords, col) for col in m])
                                   for l in family]))
             for family in families]
    return LineConfiguration(field, *moved)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(concurrent_covers())
def test_product_dependence_holds_as_polynomials(config):
    alpha, beta, gamma = verify_product_dependence(config)
    assert gamma == config.field.one
    assert not alpha.is_zero() and not beta.is_zero()
    red, blue, green = (product_form(f) for f in (config.red, config.blue, config.green))
    assert alpha * red + beta * blue == gamma * green, config.green
