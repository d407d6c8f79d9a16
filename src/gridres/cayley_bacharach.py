"""Value dependences on full intersections and their consequences.

When n hypersurfaces of degrees k_1..k_n meet in exactly k_1*...*k_n
points, the values of any polynomial of total degree at most
sum(k_i) - n - 1 on those points satisfy one linear dependence with all
coefficients nonzero.  For separable systems (each g_i univariate in its
own variable) the coefficients are products of reciprocal derivative
values and everything is computed in closed form; the general statement
over F_p is checked by exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Sequence

from .cover import min_line_cover
from .errors import CounterexampleError
from .field import Field, FieldElement, FieldMismatchError
from .multipoly import MultiPoly, vanishing_poly_from_nodes
from .nullstellensatz import (GridSystem, _grid_point_tables, _term_sum,
                              _weighted_grid_sum, grid_weights)
from .projective import ProjPoint


class SeparableSystem:
    """System g_1(z_1), ..., g_n(z_n) with all roots rational and distinct."""

    __slots__ = ("field", "nodes", "sizes", "polys")

    def __init__(self, field: Field, node_sets: Sequence[Iterable]):
        grid = GridSystem(field, node_sets)
        self.field = field
        self.nodes = grid.nodes
        self.sizes = grid.sizes
        self.polys = tuple(vanishing_poly_from_nodes(ns) for ns in self.nodes)

    @property
    def nvars(self) -> int:
        return len(self.nodes)

    @property
    def degree_bound(self) -> int:
        """Largest total degree whose values the dependence annihilates."""
        return sum(self.sizes) - self.nvars - 1

    def grid(self) -> GridSystem:
        return GridSystem(self.field, self.nodes)

    def polys_multivariate(self) -> tuple:
        """g_i lifted into the full n-variable ring, g_i depending on z_i."""
        n = self.nvars
        out = []
        for i, g in enumerate(self.polys):
            terms = {}
            for (e,), c in g.terms.items():
                mono = tuple(e if j == i else 0 for j in range(n))
                terms[mono] = c
            out.append(MultiPoly(self.field, n, terms))
        return tuple(out)


class CBRelation:
    """The dependence: coefficients alpha_x, one per grid point, all nonzero."""

    __slots__ = ("field", "nodes", "sizes", "points", "coefficients")

    def __init__(self, field: Field, nodes, points, coefficients):
        self.field = field
        self.nodes = nodes
        self.sizes = tuple(len(ns) for ns in nodes)
        self.points = points
        self.coefficients = coefficients

    @property
    def nvars(self) -> int:
        return len(self.nodes)


def cb_coefficients(system: SeparableSystem) -> CBRelation:
    """Dependence coefficients alpha_x = prod_i 1/g_i'(x_i), all nonzero."""
    weights = [grid_weights(ns) for ns in system.nodes]
    points = tuple(product(*system.nodes))
    coeffs = {}
    for pt in points:
        acc = system.field.one
        for i, x in enumerate(pt):
            acc = acc * weights[i][x]
        coeffs[pt] = acc
    return CBRelation(system.field, system.nodes, points, coeffs)


def verify_cb(f: MultiPoly, system: SeparableSystem | CBRelation) -> FieldElement:
    """Residual sum alpha_x * f(x) over the grid, reported unconditionally.

    Only the node sets are read, so the per-point relation need not be
    built.  The dependence guarantees a zero residual whenever
    total_degree(f) is at most SeparableSystem.degree_bound.
    """
    if f.field != system.field:
        raise FieldMismatchError(f"polynomial over {f.field}, system over {system.field}")
    if f.nvars != system.nvars:
        raise ValueError(f"arity mismatch: polynomial {f.nvars}, system {system.nvars}")
    if f.is_laurent():
        raise ValueError("dependence applies to polynomials (nonnegative exponents)")
    return _weighted_grid_sum(f, system.nodes)


def forced_value(values: Mapping[tuple, object], relation: CBRelation,
                 target: tuple) -> FieldElement:
    """Value at target forced by values on every other grid point.

    For any polynomial within the degree bound the dependence pins its
    last value; in particular all-zero inputs force zero.
    """
    field = relation.field
    target = tuple(field(x) for x in target)
    if target not in relation.coefficients:
        raise ValueError(f"target {tuple(map(str, target))} is not a grid point")
    given = {tuple(field(x) for x in pt): field(v) for pt, v in values.items()}
    expected = set(relation.points) - {target}
    missing = expected - set(given)
    extra = set(given) - expected
    if missing:
        raise ValueError(f"values missing for {len(missing)} grid points, "
                         f"e.g. {tuple(map(str, sorted(missing)[0]))}")
    if extra:
        raise ValueError(f"unexpected points in values, "
                         f"e.g. {tuple(map(str, sorted(extra)[0]))}")
    acc = field.zero
    for pt, v in given.items():
        acc = acc + relation.coefficients[pt] * v
    return -relation.coefficients[target].inv() * acc


def min_cover_size(points: Sequence, excluded, field: Field,
                   budget: int | None = None) -> int:
    """Fewest lines covering the affine points while avoiding excluded.

    Planar instances only; candidates are restricted to lines through two
    or more points plus singleton lines, which preserves the minimum.
    """
    proj_points = [ProjPoint.affine(field, x, y) for x, y in points]
    ex, ey = excluded
    size, _ = min_line_cover(proj_points, ProjPoint.affine(field, ex, ey),
                             field, budget=budget)
    return size


class HypersurfaceSystem:
    """System g_i = z_i^{k_i} + lower-degree terms over a prime field."""

    MAX_ENUMERATION = 10 ** 7

    __slots__ = ("field", "polys", "degrees")

    def __init__(self, field: Field, polys: Sequence[MultiPoly]):
        if not field.is_prime_field:
            raise ValueError("hypersurface verification needs a prime field")
        polys = tuple(polys)
        if not polys:
            raise ValueError("empty system")
        n = polys[0].nvars
        if len(polys) != n:
            raise ValueError(f"{len(polys)} equations for {n} variables")
        degrees = []
        for i, g in enumerate(polys):
            if g.field != field:
                raise FieldMismatchError(f"equation {i} over {g.field}, system over {field}")
            if g.nvars != n:
                raise ValueError("mixed arities in system")
            if g.is_laurent():
                raise ValueError(f"equation {i} has negative exponents")
            k = g.total_degree()
            if k < 1:
                raise ValueError(f"equation {i} must have positive degree")
            lead = tuple(k if j == i else 0 for j in range(n))
            for m in g.terms:
                if sum(m) == k and m != lead:
                    raise ValueError(
                        f"equation {i}: top-degree part must be the pure power "
                        f"of variable {i}, found monomial {m}")
            if g.terms.get(lead) != field.one:
                raise ValueError(f"equation {i}: coefficient at the pure power must be 1")
            degrees.append(k)
        self.field = field
        self.polys = polys
        self.degrees = tuple(degrees)

    @property
    def nvars(self) -> int:
        return len(self.polys)

    def solutions(self) -> list[tuple]:
        """All common zeros in F_p^n by exhaustive enumeration, sorted.

        F_p^n is the grid with every node set equal to F_p, so the points
        come in row-major (sorted) order from the grid evaluator, and each
        equation is evaluated on raw residues until one is nonzero.
        """
        p = self.field.modulus
        if p ** self.nvars > self.MAX_ENUMERATION:
            raise ValueError(
                f"enumeration of {p}^{self.nvars} points exceeds the desk-scale cap")
        nodes = [tuple(self.field.elements())] * self.nvars
        return [pt for pt, tables in _grid_point_tables(self.polys, nodes)
                if not any(_term_sum(g, tables) for g in self.polys)]


@dataclass(frozen=True)
class HypersurfaceVerdict:
    """Outcome of checking the nonvanishing statement on one system."""

    solutions: tuple
    expected_count: int
    hypothesis_ok: bool
    degree_ok: bool
    target_exponent: tuple
    target_coefficient: FieldElement
    applicable: bool
    witness: tuple | None
    witness_value: FieldElement | None


def verify_hypersurface_theorem(system: HypersurfaceSystem,
                                f: MultiPoly) -> HypersurfaceVerdict:
    """Brute-force the solution set and exhibit a nonvanishing point of f.

    When the solution count equals the degree product, deg f is at most
    sum(k_i) - n, and the coefficient at (k_1-1, ..., k_n-1) is nonzero,
    a point of the solution set with f != 0 must exist; failing to find
    one raises CounterexampleError.
    """
    if f.field != system.field:
        raise FieldMismatchError(f"polynomial over {f.field}, system over {system.field}")
    if f.nvars != system.nvars:
        raise ValueError("arity mismatch between polynomial and system")
    if f.is_laurent():
        raise ValueError("polynomial must have nonnegative exponents")
    sols = tuple(system.solutions())
    expected = 1
    for k in system.degrees:
        expected *= k
    hypothesis_ok = len(sols) == expected
    degree_ok = f.total_degree() <= sum(system.degrees) - system.nvars
    target = tuple(k - 1 for k in system.degrees)
    coeff = f.coefficient(target)
    applicable = hypothesis_ok and degree_ok and not coeff.is_zero()
    witness = None
    value = None
    if applicable:
        for pt in sols:
            v = f.evaluate(pt)
            if not v.is_zero():
                witness, value = pt, v
                break
        else:
            raise CounterexampleError(
                "nonvanishing statement failed: f vanishes on the full "
                f"intersection although its coefficient at {target} is {coeff}")
    return HypersurfaceVerdict(
        solutions=sols, expected_count=expected, hypothesis_ok=hypothesis_ok,
        degree_ok=degree_ok, target_exponent=target, target_coefficient=coeff,
        applicable=applicable, witness=witness, witness_value=value)
