"""Property tests: the bitmask cover searches against their frozenset oracles."""

import re
from fractions import Fraction
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gridres import (BudgetExceededError, Field, FieldMismatchError, ProjLine, ProjPoint,
                     line_through, search_green_covers)
from gridres.cover import lines_through_pairs, min_line_cover
from gridres.projective import all_lines

from helpers import (assert_cover, oracle_green_covers, oracle_min_line_cover,
                     traces_by_incidence_scan)

Q = Field.rationals()
F5 = Field.prime(5)
F7 = Field.prime(7)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _point_strategies(field):
    """Strategies for a coordinate, an affine point and a point at infinity."""
    if field.is_prime_field:
        coord = st.integers(0, field.modulus - 1)
    else:
        coord = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    affine = st.builds(lambda x, y: ProjPoint.affine(field, x, y), coord, coord)
    at_infinity = st.one_of(st.builds(lambda m: ProjPoint(field, (1, m, 0)), coord),
                            st.just(ProjPoint(field, (0, 1, 0))))
    return coord, affine, at_infinity


@st.composite
def point_sets(draw):
    """A field, up to 12 distinct points (some at infinity) and one more point."""
    field = draw(st.sampled_from([Q, F5, F7]))
    coord, affine, at_infinity = _point_strategies(field)
    size = draw(st.integers(1, 13))
    pool = draw(st.lists(st.one_of(affine, affine, affine, at_infinity),
                         min_size=size, max_size=size, unique=True))
    excluded = pool.pop(draw(st.integers(0, len(pool) - 1)))
    return field, pool, excluded


@SETTINGS
@given(point_sets())
def test_min_cover_matches_oracle(case):
    field, points, excluded = case
    size, lines = min_line_cover(points, excluded, field)
    assert (size, lines) == oracle_min_line_cover(points, excluded, field)
    assert_cover(points, excluded, lines, size)


@st.composite
def star_sets(draw):
    """A field, points on up to three lines through an excluded point, some
    with the line's point at infinity, and at most two loose points: most
    pair lines pass through the excluded point or are the infinity line, so
    some points keep their singleton lines."""
    field = draw(st.sampled_from([Q, F5, F7]))
    coord, affine, at_infinity = _point_strategies(field)
    ex, ey = draw(coord), draw(coord)
    excluded = ProjPoint.affine(field, ex, ey)
    points = []
    for _ in range(draw(st.integers(1, 3))):
        dx, dy = draw(coord), draw(coord)
        if not (dx or dy):
            continue
        for t in draw(st.lists(st.integers(1, 4), max_size=3, unique=True)):
            points.append(ProjPoint.affine(field, ex + t * dx, ey + t * dy))
        if draw(st.booleans()):
            points.append(ProjPoint(field, (dx, dy, 0)))
    points += draw(st.lists(st.one_of(affine, at_infinity), max_size=2))
    return field, [q for q in dict.fromkeys(points) if q != excluded], excluded


@SETTINGS
@given(star_sets())
def test_min_cover_with_surviving_singletons_matches_oracle(case):
    field, points, excluded = case
    size, lines = min_line_cover(points, excluded, field)
    assert (size, lines) == oracle_min_line_cover(points, excluded, field)
    assert_cover(points, excluded, lines, size)


# primes above 10^6, one for each of the at most 20 coordinates a set draws
BIG_PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117, 1000121,
              1000133, 1000151, 1000159, 1000171, 1000183, 1000187, 1000193, 1000199,
              1000211, 1000213, 1000231, 1000249)


@st.composite
def big_denominator_sets(draw):
    """Distinct Q points with coordinates over distinct primes above 10^6 and
    of either sign: a few runs P + t*D on lines, the runs' points at infinity
    (D : 0), and loose points."""
    primes = iter(draw(st.permutations(BIG_PRIMES)))

    def coord():
        q = next(primes)
        return Fraction(draw(st.integers(-5 * q, 5 * q)), q)

    points = []
    for _ in range(draw(st.integers(0, 3))):
        x, y, dx, dy = coord(), coord(), coord(), coord()
        if not (dx or dy):
            continue
        for t in draw(st.lists(st.integers(-3, 3), min_size=2, max_size=4, unique=True)):
            points.append(ProjPoint.affine(Q, x + t * dx, y + t * dy))
        if draw(st.booleans()):
            points.append(ProjPoint(Q, (dx, dy, 0)))
    points += [ProjPoint.affine(Q, coord(), coord()) for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        points.append(ProjPoint(Q, (0, 1, 0)))
    return list(dict.fromkeys(points))


@SETTINGS
@given(big_denominator_sets())
def test_integer_keyed_pairs_match_incidence_scan(points):
    traces = lines_through_pairs(points)
    assert set(traces.values()) == traces_by_incidence_scan(points)
    assert len(set(traces.values())) == len(traces)
    for line, trace in traces.items():
        for i, j in combinations(sorted(trace), 2):
            assert line == line_through(points[i], points[j])
    if points:
        with pytest.raises(ValueError, match="need two distinct points"):
            lines_through_pairs(points + [points[-1]])
        with pytest.raises(FieldMismatchError, match="mixed fields"):
            lines_through_pairs(points + [ProjPoint.affine(F7, 1, 2)])


def _min_budget(search, *args):
    """The fewest nodes the search completes in, found by bisection on the budget."""
    low, high = -1, 1
    while True:
        try:
            search(*args, budget=high)
            break
        except BudgetExceededError:
            low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        try:
            search(*args, budget=mid)
            high = mid
        except BudgetExceededError:
            low = mid
    return high


@st.composite
def line_grids(draw):
    """Red and blue families of one size over F_5 or F_7: axis-parallel grids
    on random nodes, or random lines of the plane."""
    field = draw(st.sampled_from([F5, F7]))
    p = field.modulus
    if draw(st.booleans()):
        n = draw(st.integers(1, p))
        nodes = st.lists(st.integers(0, p - 1), min_size=n, max_size=n, unique=True)
        red = [ProjLine(field, (1, 0, -c)) for c in draw(nodes)]
        blue = [ProjLine(field, (0, 1, -c)) for c in draw(nodes)]
        return red, blue, field
    lines = list(all_lines(field))
    n = draw(st.integers(1, 4))
    family = st.lists(st.sampled_from(lines), min_size=n, max_size=n, unique=True)
    return draw(family), draw(family), field


@SETTINGS
@given(line_grids())
def test_green_covers_match_oracle(case):
    red, blue, field = case
    try:
        expected = oracle_green_covers(red, blue, field)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            search_green_covers(red, blue, field)
        return
    assert search_green_covers(red, blue, field) == expected
    # the same pick rule explores the same tree
    assert _min_budget(search_green_covers, red, blue, field) == \
        _min_budget(oracle_green_covers, red, blue, field)
