"""Property test of the integer hull against the LP oracles in dimensions
1-5: vertices and membership against point_in_hull, facets against
facet_normals_by_enumeration (2-D and 3-D), and the existence of a strict
support direction, with and without dominated points, against one LP.
The point sets include single points and integer images of
lower-dimensional sets."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gridres import LatticePolytope
from gridres.polytope import strict_support_direction

from helpers import facet_normals_by_enumeration, point_in_hull, support_direction_exists

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@st.composite
def point_sets(draw):
    """(dim, points, extra points): a random set in [-2, 2]^dim, or the
    image of one in [-2, 2]^k (k < dim) under an integer affine map."""
    dim = draw(st.integers(1, 5))
    k = draw(st.integers(0, dim))
    coords = st.integers(-2, 2)
    small = draw(st.lists(st.tuples(*[coords] * k), min_size=1, max_size=10))
    if k == dim:
        points = small
    else:
        basis = [draw(st.tuples(*[coords] * dim)) for _ in range(k)]
        offset = draw(st.tuples(*[coords] * dim))
        points = [tuple(o + sum(c * b[i] for c, b in zip(p, basis))
                        for i, o in enumerate(offset)) for p in small]
    extra = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), max_size=3))
    return dim, points, extra


@SETTINGS
@given(point_sets())
def test_hull_matches_lp_oracles_in_dimensions_one_to_five(case):
    dim, points, extra = case
    p = LatticePolytope.from_points(points)
    distinct = sorted(set(points))
    lp_vertices = [q for i, q in enumerate(distinct)
                   if not point_in_hull(q, distinct[:i] + distinct[i + 1:])]
    assert list(p.vertices) == (distinct if len(distinct) == 1 else lp_vertices)
    for q in distinct + extra:
        assert p.contains(q) == point_in_hull(q, p.vertices)
    if 2 <= dim <= 3 and p.affine_dim() == dim:
        assert p.facet_normals() == facet_normals_by_enumeration(p.vertices)
    for v in p.vertices:
        for dominated in ((), extra):
            u = strict_support_direction(p, v, dominated=dominated)
            assert (u is not None) == support_direction_exists(p.vertices, v, dominated)
            if u is not None:
                top = _dot(u, v)
                assert all(_dot(u, w) < top for w in p.vertices if w != v)
                assert all(_dot(u, q) <= top for q in dominated)
