"""Property tests: the grid formula and the value dependence against their
pointwise oracles and the direct coefficient."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gridres import (Field, GridSystem, MultiPoly, coefficient_via_grid, forced_value,
                     grid_weights, vanishing_poly_from_nodes, verify_cb)

from helpers import pointwise_alpha, pointwise_grid_sum

Q = Field.rationals()
F2 = Field.prime(2)
F7 = Field.prime(7)
F10007 = Field.prime(10007)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def scalars(field):
    if field.is_prime_field:
        return st.integers(0, field.modulus - 1)
    return st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def grids(draw):
    """A field and a grid of 1-3 axes with 1-5 distinct nodes each."""
    field = draw(st.sampled_from([Q, F2, F7, F10007]))
    top = min(5, field.modulus or 5)
    node_sets = [draw(st.lists(scalars(field), min_size=1, max_size=top, unique=True))
                 for _ in range(draw(st.integers(1, 3)))]
    return GridSystem(field, node_sets)


@st.composite
def grid_polys(draw, relaxed):
    """A grid and a polynomial of degree at most |A_i| + 1 in each variable;
    with relaxed, every monomial other than the target drops below it
    somewhere."""
    grid = draw(grids())
    c = grid.target_exponent
    monomial = st.tuples(*(st.integers(0, k + 1) for k in c))
    if relaxed:
        monomial = monomial.filter(lambda m: m == c or any(x < y for x, y in zip(m, c)))
    terms = draw(st.dictionaries(monomial, scalars(grid.field), max_size=8))
    if relaxed and draw(st.booleans()):
        terms[c] = draw(scalars(grid.field))
    return grid, MultiPoly.from_terms(grid.field, grid.nvars, terms)


@SETTINGS
@given(grid_polys(relaxed=True))
def test_grid_coefficient_is_the_direct_coefficient(case):
    grid, f = case
    assert coefficient_via_grid(f, grid) == f.coefficient(grid.target_exponent)


@SETTINGS
@given(grid_polys(relaxed=False))
def test_residual_matches_pointwise_sum(case):
    grid, f = case
    assert verify_cb(f, grid) == pointwise_grid_sum(f, grid.nodes)


@SETTINGS
@given(grids())
def test_weights_are_reciprocal_derivatives(grid):
    for nodes in grid.nodes:
        derivative = vanishing_poly_from_nodes(nodes).partial_derivative(0)
        expected = {a.value: derivative.evaluate((a,)).inv().value for a in nodes}
        assert grid_weights(nodes) == expected


@SETTINGS
@given(st.data())
def test_forced_value_matches_pointwise_alpha(data):
    grid = data.draw(grids())
    field = grid.field
    points = list(grid.points())
    target = points[data.draw(st.integers(0, len(points) - 1))]
    values = {pt: field(data.draw(scalars(field))) for pt in points if pt != target}
    alpha = pointwise_alpha(grid.nodes)
    expected = -sum((alpha[pt] * v for pt, v in values.items()), field.zero) / alpha[target]
    assert forced_value(values, grid, target) == expected
