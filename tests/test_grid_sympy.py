"""sympy as an independent oracle for the grid sums over Q.

On a grid A_1 x ... x A_n the system g_i = prod_{b in A_i} (z_i - b) has
the grid as its simple zeros, and sum_a f(a) / det J(a) over them is the
residue sum of f.  sympy computes it here with its own derivatives
(`diff`) and determinant (`Matrix.det`), sharing no code with gridres.
That one sum is what three results of gridres must equal:
`coefficient_via_grid` (where it also equals the coefficient sympy's
`Poly.coeff_monomial` reads at the target (|A_i| - 1)_i), the residual of
`verify_cb` and `residue_sum_over_zeros` on the grid's zeros.
"""

from fractions import Fraction
from random import Random

import pytest

sympy = pytest.importorskip("sympy")

from gridres import (Field, GridSystem, NewtonSystem, coefficient_via_grid,
                     residue_sum_over_zeros, verify_cb)

from helpers import random_nodes, random_poly, random_relaxed_poly

Q = Field.rationals()


def _rational(c) -> sympy.Rational:
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def _sympy_poly(f, symbols):
    return sympy.Add(*[_rational(c) * sympy.Mul(*[s ** e for s, e in zip(symbols, m)])
                       for m, c in f.terms.items()])


def _sympy_grid_sum(f, grid: GridSystem, symbols) -> Fraction:
    """sum over the grid of f / det J, J the Jacobian of the g_i."""
    g = [sympy.Mul(*[s - _rational(b.value) for b in nodes])
         for s, nodes in zip(symbols, grid.nodes)]
    det = sympy.Matrix([[sympy.diff(gi, s) for s in symbols] for gi in g]).det()
    numerator = _sympy_poly(f, symbols)
    total = sympy.Integer(0)
    for point in grid.points():
        at = {s: _rational(a.value) for s, a in zip(symbols, point)}
        total += numerator.subs(at) / det.subs(at)
    assert total.is_Rational
    return Fraction(int(total.p), int(total.q))


def _grids(seed: str, count: int):
    """Small random grids over Q whose nodes avoid 0, so that the grid is
    also a set of zeros in the torus."""
    rng = Random(seed)
    for _ in range(count):
        n = rng.randint(1, 3)
        sizes = [rng.randint(1, 3) for _ in range(n)]
        yield rng, GridSystem(Q, [random_nodes(rng, Q, k, avoid_zero=True) for k in sizes])


def test_coefficient_via_grid_matches_sympy():
    for rng, grid in _grids("sympy-coefficient", 25):
        symbols = sympy.symbols(f"z1:{grid.nvars + 1}")
        f = random_relaxed_poly(rng, Q, grid.target_exponent)
        expected = _sympy_grid_sum(f, grid, symbols)
        coefficient = sympy.Poly(_sympy_poly(f, symbols), *symbols).coeff_monomial(
            sympy.Mul(*[s ** c for s, c in zip(symbols, grid.target_exponent)]))
        assert expected == Fraction(int(coefficient.p), int(coefficient.q))
        assert coefficient_via_grid(f, grid).value == expected


def test_cb_residual_and_residue_sum_match_sympy():
    for rng, grid in _grids("sympy-residual", 25):
        symbols = sympy.symbols(f"z1:{grid.nvars + 1}")
        # any degree: above degree_bound the residual need not vanish
        f = random_poly(rng, Q, grid.nvars, max(grid.sizes) + 1, 6)
        expected = _sympy_grid_sum(f, grid, symbols)
        assert verify_cb(f, grid).value == expected
        system = NewtonSystem(grid.polys_multivariate())
        assert residue_sum_over_zeros(system, f, list(grid.points())).value == expected
