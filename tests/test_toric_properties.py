"""Property test of the toric identity on grid systems whose nodes avoid 0,
so that the zeros lie in the torus: the residue sum over the zeros, the
signed combination of vertex residues and the grid coefficient agree.

The weights are solved from the default samples and again with random
extra samples that satisfy the vertex split.  An extra sample whose
shifted support leaves the sum polytope passes the split only through a
direction that keeps it below the vertex, and then its bound under the
vertex's own direction can be positive, so the solve expands that
vertex's series past depth 0."""

from fractions import Fraction
from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, settings, strategies as st

from gridres import (Field, GridSystem, MultiPoly, NewtonSystem, coefficient_via_grid,
                     default_samples, residue_sum_over_zeros, solve_vertex_coefficients,
                     vertex_split, weighted_vertex_combination)
from gridres.polytope import strict_support_direction

FIELDS = [Field.rationals(), Field.prime(7), Field.prime(10007)]

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def coefficients(field):
    if field.is_prime_field:
        return st.integers(1, field.modulus - 1)
    return st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 6))


@st.composite
def grid_systems(draw):
    """(field, grid, system, zeros) for 1-2 axes of 1-3 nonzero nodes."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 2))
    nodes = [draw(st.lists(coefficients(field).map(field), min_size=1, max_size=3,
                           unique=True)) for _ in range(n)]
    grid = GridSystem(field, nodes)
    return field, grid, NewtonSystem(grid.polys_multivariate()), list(product(*grid.nodes))


def polys(field, n, low, high, max_terms=4):
    exponents = st.tuples(*[st.integers(low, high)] * n)
    return st.dictionaries(exponents, coefficients(field), min_size=1, max_size=max_terms).map(
        lambda terms: MultiPoly.from_terms(field, n, terms))


@st.composite
def outside_points(draw, sizes):
    """A point of the box [0, k_1] x ... x [0, k_n], or one 1-3 past a facet
    of it and strictly inside the box in every other coordinate: such a
    point stays weakly below each vertex under some strict direction."""
    n = len(sizes)
    point = [draw(st.integers(0, k)) for k in sizes]
    axis = draw(st.integers(0, n - 1))
    if all(k >= 2 for j, k in enumerate(sizes) if j != axis) and draw(st.booleans()):
        point = [draw(st.integers(1, k - 1)) if j != axis else 0
                 for j, k in enumerate(sizes)]
        past = draw(st.integers(1, 3))
        point[axis] = sizes[axis] + past if draw(st.booleans()) else -past
    return tuple(point)


def split_samples(field, sizes):
    """1-3 monomials z^{s - (1,...,1)} at such points s."""
    shifted = st.builds(lambda s: tuple(c - 1 for c in s), outside_points(sizes))
    return st.dictionaries(shifted, coefficients(field), min_size=1, max_size=3).map(
        lambda terms: MultiPoly.from_terms(field, len(sizes), terms))


def splits(system, f) -> bool:
    try:
        vertex_split(system, f)
    except ValueError:
        return False
    return True


def past_depth_zero(system, f) -> bool:
    """Whether f's bound under some vertex's own direction is positive."""
    total = system.sum_polytope
    for v in total.vertices:
        u = strict_support_direction(total, v)
        if max(sum(a * (m_i + 1 - v_i) for a, m_i, v_i in zip(u, m, v))
               for m in f.terms) > 0:
            return True
    return False


@SETTINGS
@given(data=st.data())
def test_toric_identity_on_grid_systems(data):
    field, grid, system, zeros = data.draw(grid_systems())
    n = system.nvars
    target = grid.target_exponent
    top = max(target) + 1
    # the grid formula needs every monomial but the target to drop below it
    f = data.draw(polys(field, n, 0, top + 1, max_terms=6))
    f = MultiPoly.from_terms(field, n, {m: c for m, c in f.terms.items()
                                        if m == target or min(map(int.__sub__, m, target)) < 0}
                             or {target: 1})
    weights = solve_vertex_coefficients(system, zeros, default_samples(system))
    assert weights.unconstrained == ()
    lhs = residue_sum_over_zeros(system, f, zeros)
    assert lhs == weighted_vertex_combination(system, f, weights) == coefficient_via_grid(f, grid)

    sizes = [len(nodes) for nodes in grid.nodes]
    extras = data.draw(st.lists(split_samples(field, sizes), max_size=4))
    extras = [g for g in extras if splits(system, g)]
    if any(past_depth_zero(system, g) for g in extras):
        event("a sample past depth 0")
    samples = default_samples(system) + extras
    at = data.draw(st.permutations(range(len(samples))))
    again = solve_vertex_coefficients(system, zeros, [samples[i] for i in at])
    assert again.values == weights.values
    assert again.unconstrained == () and again.rank == len(system.sum_polytope.vertices)
    assert weighted_vertex_combination(system, f, again) == lhs
    for g in extras:
        assert residue_sum_over_zeros(system, g, zeros) == weighted_vertex_combination(
            system, g, again)


@SETTINGS
@given(data=st.data())
def test_toric_identity_with_laurent_numerators(data):
    field, _, system, zeros = data.draw(grid_systems())
    f = data.draw(polys(field, system.nvars, -3, 4, max_terms=5))
    weights = solve_vertex_coefficients(system, zeros, default_samples(system))
    assert (residue_sum_over_zeros(system, f, zeros)
            == weighted_vertex_combination(system, f, weights))
