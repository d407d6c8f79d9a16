from random import Random

import pytest

from gridres import Field, LatticePolytope, parse_poly
from gridres.polytope import solve_nonnegative, strict_support_direction
from gridres.toric import newton_polytope

from helpers import (ccw_hull, facet_normals_by_enumeration, point_in_hull,
                     support_direction_exists)

Q = Field.rationals()


def poly(points):
    return LatticePolytope.from_points(points)


def test_solve_nonnegative_basic():
    # x + y = 2, x - y = 0 -> x = y = 1
    x = solve_nonnegative([[1, 1], [1, -1]], [2, 0])
    assert x == [1, 1]
    # x + y = -1 with x, y >= 0 is infeasible
    assert solve_nonnegative([[1, 1]], [-1]) is None or all(v <= 0 for v in [1])
    assert solve_nonnegative([[1, 1]], [-1]) is None


def test_point_in_hull():
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert point_in_hull((1, 1), square)
    assert point_in_hull((0, 0), square)
    assert not point_in_hull((3, 1), square)
    assert not point_in_hull((1, 1), [(0, 0), (2, 0)])
    assert point_in_hull((1, 0), [(0, 0), (2, 0)])


def test_newton_polytope_examples():
    assert newton_polytope(parse_poly("x + y", Q, 2)).vertices == ((0, 1), (1, 0))
    tri = newton_polytope(parse_poly("3*x^2*y + x*y - 2", Q, 2))
    assert tri.vertices == ((0, 0), (1, 1), (2, 1))
    seg = newton_polytope(parse_poly("x^2 - 1", Q, 1))
    assert seg.vertices == ((0,), (2,))
    with pytest.raises(ValueError):
        newton_polytope(parse_poly("0", Q, 1))


def test_minkowski_sum_examples():
    horizontal = poly([(0, 0), (2, 0)])
    vertical = poly([(0, 0), (0, 1)])
    box = horizontal.minkowski_sum(vertical)
    assert box.vertices == ((0, 0), (0, 1), (2, 0), (2, 1))
    origin = poly([(0, 0)])
    assert horizontal.minkowski_sum(origin) == horizontal
    diag = poly([(0, 0), (1, 1)])
    assert diag.minkowski_sum(diag).vertices == ((0, 0), (2, 2))


def test_minkowski_commutative_associative():
    rng = Random(8)
    for _ in range(15):
        ps = [poly([(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)])
              for _ in range(3)]
        a, b, c = ps
        assert a.minkowski_sum(b) == b.minkowski_sum(a)
        assert a.minkowski_sum(b).minkowski_sum(c) == a.minkowski_sum(b.minkowski_sum(c))


def test_face_in_direction_examples():
    box = poly([(0, 0), (2, 0), (0, 1), (2, 1)])
    top = box.face_in_direction((0, 1))
    assert top.vertices == ((0, 1), (2, 1))
    corner = box.face_in_direction((1, 1))
    assert corner.vertices == ((2, 1),)
    diag = poly([(0, 0), (2, 2)])
    assert diag.face_in_direction((1, -1)).vertices == ((0, 0), (2, 2))
    with pytest.raises(ValueError):
        box.face_in_direction((0, 0))


def test_translate_and_contains():
    moved = poly([(1, 1), (3, 2), (2, 2)])
    assert moved.vertices == ((1, 1), (2, 2), (3, 2))
    assert moved.contains((2, 2))
    assert not moved.contains((0, 0))


def test_affine_dim():
    assert poly([(1, 2, 3)]).affine_dim() == 0
    assert poly([(0, 0, 0), (2, 2, 2)]).affine_dim() == 1
    assert poly([(0, 0, 0), (1, 0, 0), (0, 1, 0)]).affine_dim() == 2
    assert poly([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]).affine_dim() == 3


def test_facet_normals_2d():
    box = poly([(0, 0), (2, 0), (0, 1), (2, 1)])
    assert set(box.facet_normals()) == {(0, 1), (0, -1), (1, 0), (-1, 0)}
    assert box.vertex_facet_count((2, 1)) == 2


def test_facet_normals_3d():
    cube = poly([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    normals = set(cube.facet_normals())
    assert normals == {(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                       (0, 0, 1), (0, 0, -1)}
    assert cube.vertex_facet_count((1, 1, 1)) == 3
    simplex = poly([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert (1, 1, 1) in simplex.facet_normals()


def test_interval_facets():
    seg = poly([(0,), (4,)])
    assert seg.facet_normals() == [(-1,), (1,)]
    assert seg.vertex_facet_count((4,)) == 1


def test_strict_support_direction():
    box = poly([(0, 0), (2, 0), (0, 1), (2, 1)])
    for v in box.vertices:
        u = strict_support_direction(box, v)
        assert u is not None
        others = [w for w in box.vertices if w != v]
        top = sum(a * b for a, b in zip(u, v))
        assert all(sum(a * b for a, b in zip(u, w)) < top for w in others)
    # dominated constraint can make it infeasible
    assert strict_support_direction(box, (2, 1), dominated=[(3, 3)]) is None


def test_extreme_points_degenerate():
    line = poly([(0, 0), (1, 1), (2, 2), (3, 3)])
    assert line.vertices == ((0, 0), (3, 3))
    point = poly([(5, 5), (5, 5)])
    assert point.vertices == ((5, 5),)


def test_extreme_points_against_monotone_chain():
    rng = Random(55)
    for _ in range(40):
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4))
               for _ in range(rng.randint(1, 12))]
        assert sorted(LatticePolytope.from_points(pts).vertices) == sorted(ccw_hull(pts))
    for _ in range(20):
        pts1 = [(rng.randint(-9, 9),) for _ in range(rng.randint(1, 8))]
        expected = sorted({min(pts1), max(pts1)})
        assert list(LatticePolytope.from_points(pts1).vertices) == expected


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _random_sets():
    """Seeded point sets: random 2-D and 3-D, coplanar and collinear in 3-D,
    heavy duplicates, and lattice points on the paraboloid z = x^2 + y^2."""
    rng = Random(2024)
    for _ in range(25):
        yield [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 14))]
    for _ in range(25):
        yield [tuple(rng.randint(-3, 3) for _ in range(3))
               for _ in range(rng.randint(1, 16))]
    for _ in range(12):
        # an integer affine image of a planar set: affine dimension <= 2 in 3-D
        u, v = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(2)]
        o = tuple(rng.randint(-3, 3) for _ in range(3))
        yield [tuple(o[i] + a * u[i] + b * v[i] for i in range(3))
               for a, b in ((rng.randint(-3, 3), rng.randint(-3, 3))
                            for _ in range(rng.randint(3, 10)))]
    for dim in (2, 3):
        for _ in range(6):
            d = tuple(rng.randint(-2, 2) for _ in range(dim))
            o = tuple(rng.randint(-3, 3) for _ in range(dim))
            yield [tuple(o[i] + t * d[i] for i in range(dim))
                   for t in (rng.randint(-4, 4) for _ in range(rng.randint(1, 6)))]
    for _ in range(6):
        pool = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(5)]
        yield [rng.choice(pool) for _ in range(12)]
    for r in (1, 2):
        yield [(x, y, x * x + y * y) for x in range(-r, r + 1) for y in range(-r, r + 1)]
    yield [(x, y, x * x + y * y) for x in range(-2, 3) for y in range(-2, 3)
           if x * x + y * y <= 5]
    # a cube with every lattice point of its boundary and interior
    yield [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]


def test_hull_matches_lp_oracles():
    rng = Random(91)
    for pts in _random_sets():
        p = poly(pts)
        distinct = sorted(set(pts))
        lp_vertices = [q for i, q in enumerate(distinct)
                       if not point_in_hull(q, distinct[:i] + distinct[i + 1:])]
        assert list(p.vertices) == (distinct if len(distinct) == 1 else lp_vertices)
        if p.affine_dim() == p.dim:
            assert p.facet_normals() == facet_normals_by_enumeration(p.vertices)
        lo = [min(q[i] for q in distinct) - 1 for i in range(p.dim)]
        hi = [max(q[i] for q in distinct) + 1 for i in range(p.dim)]
        queries = distinct + [tuple(rng.randint(a, b) for a, b in zip(lo, hi))
                              for _ in range(12)]
        for q in queries:
            assert p.contains(q) == point_in_hull(q, p.vertices), (pts, q)


def test_support_directions_are_certificates():
    for pts in _random_sets():
        p = poly(pts)
        if len(p.vertices) < 2:
            continue
        for v in p.vertices:
            u = strict_support_direction(p, v, dominated=pts)
            assert u is not None
            top = _dot(u, v)
            assert all(_dot(u, w) < top for w in p.vertices if w != v)
            assert all(_dot(u, q) <= top for q in pts)


def test_support_direction_keeps_dominated_points_below():
    box = poly([(0, 0), (2, 0), (0, 1), (2, 1)])
    # the normal-cone sum (1, 1) puts (4, 0) above (2, 1); (1, 3) does not
    assert support_direction_exists(box.vertices, (2, 1), [(4, 0)])
    u = strict_support_direction(box, (2, 1), dominated=[(4, 0)])
    assert _dot(u, (2, 1)) >= _dot(u, (4, 0))
    assert all(_dot(u, w) < _dot(u, (2, 1)) for w in box.vertices if w != (2, 1))
    # a triangle in the plane z = 0: the certificate must leave the plane
    tri = poly([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert support_direction_exists(tri.vertices, (1, 0, 0), [(2, 0, 1)])
    u = strict_support_direction(tri, (1, 0, 0), dominated=[(2, 0, 1)])
    assert u[2] != 0
    assert _dot(u, (1, 0, 0)) >= _dot(u, (2, 0, 1))
    assert all(_dot(u, w) < _dot(u, (1, 0, 0)) for w in tri.vertices if w != (1, 0, 0))


def _random_sets_4d_5d():
    """Seeded point sets in 4-D and 5-D: random, with duplicates, and
    integer affine images of lower-dimensional sets."""
    rng = Random(45)
    for dim in (4, 5):
        for _ in range(6):
            yield [tuple(rng.randint(-2, 2) for _ in range(dim))
                   for _ in range(rng.randint(1, 14))]
        for k in range(1, dim):
            basis = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(k)]
            yield [tuple(sum(rng.randint(-2, 2) * b[i] for b in basis) for i in range(dim))
                   for _ in range(rng.randint(2, 10))]


def test_hull_runs_no_lp_up_to_dimension_three(monkeypatch):
    import gridres.polytope as polytope

    def refuse(*args):
        raise AssertionError("LP solved")
    monkeypatch.setattr(polytope, "solve_nonnegative", refuse)
    for pts in _random_sets():
        p = poly(pts)
        p.contains(pts[0])
        p.affine_dim()
        for v in p.vertices:
            strict_support_direction(p, v)
            strict_support_direction(p, v, dominated=pts)
        if p.affine_dim() == p.dim:
            p.facet_normals()


def test_hull_runs_no_lp_in_dimensions_four_and_five(monkeypatch):
    import gridres.polytope as polytope

    def refuse(*args):
        raise AssertionError("LP solved")
    monkeypatch.setattr(polytope, "solve_nonnegative", refuse)
    for pts in _random_sets_4d_5d():
        p = poly(pts)
        for q in pts + [(3,) * p.dim]:
            p.contains(q)
        p.affine_dim()
        for v in p.vertices:
            strict_support_direction(p, v)
            strict_support_direction(p, v, dominated=pts)
            strict_support_direction(p, v, dominated=[(3,) * p.dim])


def test_hull_budget_counts_the_kernel_work():
    from gridres import BudgetExceededError
    # a simplex is built whole before any point is tested: no work counted
    simplex = [(0,) * 5] + [tuple(int(i == j) for j in range(5)) for i in range(5)]
    assert LatticePolytope.from_points(simplex, budget=0) == poly(simplex)
    for pts in _random_sets_4d_5d():
        p = poly(pts)
        if len(p.vertices) > p.affine_dim() + 1:
            assert LatticePolytope.from_points(pts, budget=10 ** 6) == p
            with pytest.raises(BudgetExceededError) as err:
                LatticePolytope.from_points(pts, budget=p.affine_dim())
            assert err.value.nodes == p.affine_dim()


def test_affine_dimension_four_matches_lp_oracles():
    rng = Random(4)
    for _ in range(5):
        pts = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(9)]
        p = poly(pts)
        distinct = sorted(set(pts))
        assert p.affine_dim() == 4
        assert list(p.vertices) == [q for i, q in enumerate(distinct)
                                    if not point_in_hull(q, distinct[:i] + distinct[i + 1:])]
        for q in distinct + [(3, 0, 0, 0), (0, 0, 0, 0)]:
            assert p.contains(q) == point_in_hull(q, p.vertices)
        for v in p.vertices:
            u = strict_support_direction(p, v)
            assert all(_dot(u, w) < _dot(u, v) for w in p.vertices if w != v)
        with pytest.raises(ValueError, match="dimension <= 3"):
            p.facet_normals()
