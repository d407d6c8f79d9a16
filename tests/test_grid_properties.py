"""Property tests: the grid formula and the value dependence against their
pointwise oracles and the direct coefficient."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gridres import (Field, GridSystem, MultiPoly, coefficient_via_grid,
                     find_nonvanishing_witness, forced_value, grid_weights,
                     vanishing_poly_from_nodes, verify_cb)
from gridres.field import is_prime

from helpers import (fraction_forced_value, fraction_grid_sum, fraction_weights,
                     fraction_witness, pointwise_alpha, pointwise_grid_sum)

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


# The integer kernels over Q against their Fraction oracles, on nodes whose
# denominators are distinct primes above 10^6 (so the lcm per axis is their
# product), with negative nodes, the node 0 and one-node axes.

WIDE_PRIMES = [q for q in range(10 ** 6, 10 ** 6 + 400) if is_prime(q)]


@st.composite
def wide_grids(draw):
    """A Q grid of 1-3 axes with 1-4 nodes each; every node's denominator
    is 1 or a prime above 10^6 that no other node of the grid has."""
    primes = iter(draw(st.permutations(WIDE_PRIMES)))
    node_sets = []
    for _ in range(draw(st.integers(1, 3))):
        nodes = set()
        if draw(st.booleans()):
            nodes.add(Fraction(0))
        for _ in range(draw(st.integers(0 if nodes else 1, 4 - len(nodes)))):
            den = next(primes) if draw(st.booleans()) else 1
            nodes.add(Fraction(draw(st.integers(-10 ** 7, 10 ** 7)), den))
        node_sets.append(sorted(nodes))
    return GridSystem(Q, node_sets)


def wide_scalars():
    return st.fractions(max_denominator=10 ** 12).filter(lambda c: abs(c.numerator) < 10 ** 12)


@st.composite
def wide_polys(draw, grid, relaxed):
    """Up to 6 terms with coefficients of wide denominators: monomials in
    the box up to the target, and spikes far above it in one coordinate
    (dropping below the target in another when relaxed); may be zero."""
    c = grid.target_exponent
    n = grid.nvars
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        mono = [draw(st.integers(0, k)) for k in c]
        if draw(st.booleans()):
            i = draw(st.integers(0, n - 1))
            mono[i] = c[i] + draw(st.sampled_from([1, 2, 7, 40]))
            if relaxed:
                lower = [j for j in range(n) if c[j] > 0 and j != i]
                if not lower:
                    continue
                j = draw(st.sampled_from(lower))
                mono[j] = draw(st.integers(0, c[j] - 1))
        terms[tuple(mono)] = draw(wide_scalars())
    return MultiPoly.from_terms(Q, n, terms)


@SETTINGS
@given(st.data())
def test_integer_grid_sum_equals_the_fraction_oracle(data):
    grid = data.draw(wide_grids())
    f = data.draw(wide_polys(grid, relaxed=True))
    assert coefficient_via_grid(f, grid) == fraction_grid_sum(f, grid.nodes)
    assert coefficient_via_grid(f, grid) == f.coefficient(grid.target_exponent)
    g = data.draw(wide_polys(grid, relaxed=False))
    assert verify_cb(g, grid) == fraction_grid_sum(g, grid.nodes)
    for nodes in grid.nodes:
        assert grid_weights(nodes) == fraction_weights([a.value for a in nodes], None)


@SETTINGS
@given(st.data())
def test_integer_forced_value_equals_the_fraction_oracle(data):
    grid = data.draw(wide_grids())
    points = list(grid.points())
    target = points[data.draw(st.integers(0, len(points) - 1))]
    zero = data.draw(st.booleans())
    values = {pt: Q(0 if zero else data.draw(wide_scalars())) for pt in points if pt != target}
    assert forced_value(values, grid, target) == fraction_forced_value(values, grid, target)


@SETTINGS
@given(st.data())
def test_integer_witness_equals_the_fraction_oracle(data):
    """f times (x_i - a) for some nodes a of axis i, so the walk skips
    leading slabs, and sometimes the whole grid."""
    grid = data.draw(wide_grids())
    f = data.draw(wide_polys(grid, relaxed=False))
    i = data.draw(st.integers(0, grid.nvars - 1))
    x = MultiPoly.variable(Q, grid.nvars, i)
    for a in grid.nodes[i][:data.draw(st.integers(0, len(grid.nodes[i])))]:
        f = f * (x - a)
    witness = find_nonvanishing_witness(f, grid)
    assert witness == fraction_witness(f, grid)
    if witness is not None:
        assert not f.evaluate(witness).is_zero()
