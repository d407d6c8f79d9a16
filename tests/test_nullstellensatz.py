from fractions import Fraction
from itertools import product
from random import Random

import pytest

from gridres import (Field, GridSystem, MultiPoly, check_classical_degree,
                     check_relaxed_support, coefficient_via_grid,
                     find_nonvanishing_witness, grid_weights, parse_poly)

from helpers import random_nodes, random_poly, random_relaxed_poly

Q = Field.rationals()
F5 = Field.prime(5)
F7 = Field.prime(7)


def test_grid_weights_examples():
    w = grid_weights([Q(0), Q(1), Q(2)])
    assert w == {0: Fraction(1, 2), 1: -1, 2: Fraction(1, 2)}
    assert grid_weights([Q(0), Q(1)]) == {0: -1, 1: 1}
    w5 = grid_weights([F5(0), F5(1), F5(2)])
    assert w5 == {0: 3, 1: 4, 2: 3}
    with pytest.raises(ValueError, match="duplicate"):
        grid_weights([Q(1), Q(1)])


def test_weights_sum_to_zero():
    rng = Random(2)
    for field in (Q, F7):
        for k in (2, 3, 4, 5):
            nodes = random_nodes(rng, field, k)
            total = field.zero
            for w in grid_weights(nodes).values():
                total = total + field(w)
            assert total.is_zero()


def test_check_classical_degree():
    f = parse_poly("3*x^2*y + x*y - 2", Q, 2)
    assert check_classical_degree(f, (2, 1))
    assert not check_classical_degree(parse_poly("x^3 + x*y", Q, 2), (1, 1))
    assert check_classical_degree(MultiPoly.zero(Q, 2), (0, 0))


def test_check_relaxed_support():
    assert check_relaxed_support(parse_poly("x^3 + x*y", Q, 2), (1, 1))
    assert not check_relaxed_support(parse_poly("x^2*y^2", Q, 2), (1, 1))
    rng = Random(9)
    for _ in range(40):
        f = random_relaxed_poly(rng, Q, (2, 1, 2))
        if check_classical_degree(f, (2, 1, 2)):
            assert check_relaxed_support(f, (2, 1, 2))


def test_coefficient_via_grid_examples():
    f = parse_poly("3*x^2*y + x*y - 2", Q, 2)
    grid = GridSystem(Q, [[0, 1, 2], [0, 1]])
    assert coefficient_via_grid(f, grid) == Q(3)

    one = parse_poly("1", Q, 2)
    grid2 = GridSystem(Q, [[0, 1], [0, 1]])
    assert coefficient_via_grid(one, grid2) == Q(0)

    f2 = parse_poly("x^3 + x*y", Q, 2)
    assert coefficient_via_grid(f2, grid2) == Q(1)


def test_relaxed_precondition_enforced():
    grid = GridSystem(Q, [[0, 1], [0, 1]])
    with pytest.raises(ValueError, match="relaxed support"):
        coefficient_via_grid(parse_poly("x^2*y^2", Q, 2), grid)
    with pytest.raises(ValueError, match="nonnegative"):
        coefficient_via_grid(parse_poly("x^-1*y", Q, 2), grid)


def test_grid_construction_validation():
    with pytest.raises(ValueError, match="duplicate"):
        GridSystem(Q, [[0, 0], [1]])
    with pytest.raises(ValueError, match="empty"):
        GridSystem(Q, [[0, 1], []])
    grid = GridSystem(F7, [[3, 1, 2]])
    assert grid.nodes[0] == (F7(1), F7(2), F7(3))


@pytest.mark.parametrize("field", [Q, F7, Field.prime(101)])
def test_oracle_equivalence_randomized(field):
    rng = Random(field.modulus or 0)
    for _ in range(60):
        n = rng.randint(1, 4)
        sizes = [rng.randint(1, 5) for _ in range(n)]
        if field.is_prime_field:
            sizes = [min(k, field.modulus) for k in sizes]
        grid = GridSystem(field, [random_nodes(rng, field, k) for k in sizes])
        f = random_relaxed_poly(rng, field, grid.target_exponent)
        assert coefficient_via_grid(f, grid) == f.coefficient(grid.target_exponent)


def test_grid_independence():
    rng = Random(17)
    f = random_relaxed_poly(rng, Q, (2, 2))
    g1 = GridSystem(Q, [[0, 1, 2], [0, 1, 2]])
    g2 = GridSystem(Q, [[-1, 5, 7], ["1/2", "1/3", 4]])
    assert coefficient_via_grid(f, g1) == coefficient_via_grid(f, g2)


def test_witness_examples():
    grid = GridSystem(Q, [[0, 1], [0, 1]])
    assert find_nonvanishing_witness(parse_poly("x*y + 1", Q, 2), grid) == (Q(0), Q(0))
    assert find_nonvanishing_witness(MultiPoly.zero(Q, 2), grid) is None
    f = parse_poly("(x - 1)*(y - 1)", Q, 2)
    assert coefficient_via_grid(f, grid) == Q(1)
    assert find_nonvanishing_witness(f, grid) == (Q(0), Q(0))


def test_witness_soundness_randomized():
    rng = Random(23)
    for field in (Q, F5):
        for _ in range(40):
            n = rng.randint(1, 3)
            sizes = [rng.randint(1, 3) for _ in range(n)]
            grid = GridSystem(field, [random_nodes(rng, field, k) for k in sizes])
            f = random_relaxed_poly(rng, field, grid.target_exponent)
            witness = find_nonvanishing_witness(f, grid)
            if not coefficient_via_grid(f, grid).is_zero():
                assert witness is not None
            if witness is not None:
                assert not f.evaluate(witness).is_zero()
                assert all(w in ns for w, ns in zip(witness, grid.nodes))


@pytest.mark.parametrize("field", [Q, F5, Field.prime(101)])
def test_witness_matches_row_major_oracle(field, elem_ops):
    rng = Random(field.modulus or 3)
    later, none = 0, 0
    for case in range(40):
        n = rng.randint(1, 3)
        sizes = [rng.randint(1, 4) for _ in range(n)]
        grid = GridSystem(field, [random_nodes(rng, field, k) for k in sizes])
        f = random_poly(rng, field, n, 3, 6)
        # f * (x_i - a_0)(x_i - a_1)...: the first slabs along axis i vanish,
        # and every fourth case the whole grid
        i = 0 if case % 2 else rng.randrange(n)
        ns = grid.nodes[i]
        x = MultiPoly.variable(field, n, i)
        for a in ns[:len(ns) if case % 4 == 3 else rng.randint(1, len(ns))]:
            f = f * (x - a)
        expected = next((pt for pt in product(*grid.nodes)
                         if not f.evaluate(pt).is_zero()), None)
        elem_ops.clear()
        assert find_nonvanishing_witness(f, grid) == expected
        assert not elem_ops  # the walk runs on raw values
        later += expected is not None and expected != next(grid.points())
        none += expected is None
    assert later >= 5 and none >= 5


@pytest.mark.parametrize("field", [Q, F7, Field.prime(101)])
def test_grid_sums_do_no_element_arithmetic(field, elem_ops):
    rng = Random(field.modulus or 5)
    for _ in range(20):
        n = rng.randint(1, 3)
        grid = GridSystem(field, [random_nodes(rng, field, rng.randint(1, 4)) for _ in range(n)])
        f = random_relaxed_poly(rng, field, grid.target_exponent)
        expected = f.coefficient(grid.target_exponent)
        elem_ops.clear()
        for nodes in grid.nodes:
            grid_weights(nodes)
        assert coefficient_via_grid(f, grid) == expected
        assert not elem_ops  # raw weight tables, one wrapped scalar
