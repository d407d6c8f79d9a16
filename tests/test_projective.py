"""Raw canonical triples in gridres.projective against the field-element
oracle in helpers, and no field-element arithmetic in the cover searches."""

from fractions import Fraction
from random import Random

import pytest

from gridres import (Field, FieldMismatchError, ProjLine, ProjPoint,
                     grid_intersections, line_through, meet, search_green_covers)
from gridres.cover import min_line_cover
from gridres.projective import all_lines, pencil

from helpers import (all_points, assert_raw_triple, element_canonical, element_contains,
                     element_coords, element_cross, random_element)

Q = Field.rationals()
F5 = Field.prime(5)
F7 = Field.prime(7)
F10007 = Field.prime(10007)


def random_triple(rng, field):
    """A nonzero triple of field elements, some given as strings or raw values."""
    while True:
        vec = [random_element(rng, field) for _ in range(3)]
        if rng.random() < 0.3:
            vec[rng.randrange(3)] = field.zero
        if any(vec):
            forms = (lambda c: c, str, lambda c: c.value)
            return [rng.choice(forms)(c) for c in vec]


@pytest.mark.parametrize("field", [Q, F5, F10007], ids=str)
def test_joins_meets_and_incidence_match_element_oracle(field):
    rng = Random(f"projective-{field}")
    for _ in range(300):
        u, v, w = (random_triple(rng, field) for _ in range(3))
        point = ProjPoint(field, w)
        for cls in (ProjPoint, ProjLine):
            a, b = cls(field, u), cls(field, v)
            for x, vec in ((a, u), (b, v)):
                assert_raw_triple(x)
                assert element_coords(x) == element_canonical(field, vec)
            join = line_through if cls is ProjPoint else meet
            if element_canonical(field, u) == element_canonical(field, v):
                assert a == b
                with pytest.raises(ValueError):
                    join(a, b)
                continue
            c = join(a, b)
            assert_raw_triple(c)
            assert element_coords(c) == element_canonical(
                field, element_cross(element_coords(a), element_coords(b)))
            incidences = [(c, a), (c, b)] if cls is ProjPoint else [(a, c), (b, c)]
            assert all(line.contains(x) for line, x in incidences)
            for line in (c,) if cls is ProjPoint else (a, b):
                assert line.contains(point) == element_contains(line, point)


@pytest.mark.parametrize("field", [F5, F10007], ids=str)
def test_pencil_matches_element_oracle(field):
    rng = Random(f"pencil-{field}")
    p = field.modulus
    points = [ProjPoint(field, (0, 1, 0)), ProjPoint(field, (1, rng.randrange(p), 0)),
              ProjPoint(field, random_triple(rng, field))]
    for point in points:
        lines = pencil(point)
        assert len(set(lines)) == len(lines) == p + 1
        for line in lines:
            assert_raw_triple(line)
            assert element_contains(line, point)


@pytest.mark.parametrize("vec, coords", [
    ((2, 0, 1), (1, 0, Fraction(1, 2))),
    ((0, 3, -4), (0, 1, Fraction(-4, 3))),
    ((Fraction(2), Fraction(0), Fraction(1)), (1, 0, Fraction(1, 2))),
    ((Fraction(2, 3), 0, 5), (1, 0, Fraction(15, 2))),
])
@pytest.mark.parametrize("cls", [ProjPoint, ProjLine])
def test_raw_triples_over_q_stay_exact(cls, vec, coords):
    # an int lead must not turn the quotients into floats
    x = cls._raw(Q, vec)
    assert_raw_triple(x)
    assert x.coords == coords


def test_enumerators_store_raw_triples():
    for x in list(all_points(F5)) + list(all_lines(F5)):
        assert_raw_triple(x)
        assert element_coords(x) == element_canonical(F5, x.coords)
    for enumerate_all in (all_points, all_lines):
        with pytest.raises(ValueError, match="cannot enumerate"):
            next(enumerate_all(Q))
    with pytest.raises(ValueError, match="cannot enumerate"):
        pencil(ProjPoint.affine(Q, 1, 2))


def test_mixed_fields_are_rejected():
    a, b = ProjPoint.affine(F5, 1, 2), ProjPoint.affine(F7, 1, 2)
    assert a != b
    with pytest.raises(FieldMismatchError):
        line_through(a, b)
    with pytest.raises(FieldMismatchError):
        ProjLine(F7, (1, 1, 1)).contains(a)


def test_cover_searches_do_no_element_arithmetic(elem_ops):
    rng = Random(7)
    # F_7: three random lines through each of two random points
    while True:
        try:
            red, blue = ([line_through(center, ProjPoint(F7, random_triple(rng, F7)))
                          for _ in range(3)]
                         for center in (ProjPoint(F7, random_triple(rng, F7)) for _ in "rb"))
            f7 = (red, blue, grid_intersections(red, blue))
            break
        except ValueError:
            continue
    # Q: a seeded 3 x 3 grid of equally spaced rows and columns
    x0, y0, step = (Fraction(rng.randint(lo, 9), rng.randint(1, 9)) for lo in (-9, -9, 1))
    red = [ProjLine(Q, (1, 0, -(x0 + k * step))) for k in range(3)]
    blue = [ProjLine(Q, (0, 1, -(y0 + k * step))) for k in range(3)]
    q = (red, blue, grid_intersections(red, blue))
    elem_ops.clear()
    (F7(2) * F7(3)).inv()
    assert len(elem_ops) == 2
    elem_ops.clear()
    found = []
    for field, (red, blue, grid) in ((F7, f7), (Q, q)):
        found.append(len(search_green_covers(red, blue, field)))
        found.append(min_line_cover(grid[1:], grid[0], field)[0])
    assert len(elem_ops) == 0
    # green covers, then the minimum avoiding cover (n + m - 2 = 4), per grid
    assert found == [1, 4, 0, 4]
