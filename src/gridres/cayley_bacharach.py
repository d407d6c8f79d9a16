"""Value dependences on full intersections and their consequences.

When n hypersurfaces of degrees k_1..k_n meet in exactly k_1*...*k_n
points, the values of any polynomial of total degree at most
sum(k_i) - n - 1 on those points satisfy one linear dependence with all
coefficients nonzero.  For separable systems (each g_i univariate in its
own variable) the zeros form a grid, a nullstellensatz.GridSystem, and
the Jacobian is diagonal, so the coefficient at x is
alpha_x = prod_i w_i(x_i) with one weight w_i = 1/g_i'(x_i) per axis.
The dependence is never stored point by point, and the g_i themselves are
never built for it: the residual is the factorized grid sum.  A forced
value keys each value record by the node indices of its point and
contracts the value map against the per-axis weight tables of
nullstellensatz.grid_weights, indexed by node.  Over Q each table is
cleared of denominators once (scaled by the lcm of its denominators, so
its entries are ints proportional to 1/g_i'(a), as are the W_j of
nullstellensatz), and the values are scaled to ints by the lcm M of
theirs.  Each axis's common factor cancels in
-(sum of alpha_x v_x) / alpha_t, so the contraction runs on ints and the
forced value is one division: the contracted values over M times the
contracted indicator of t.
The general statement over F_p is checked on the common zeros in F_p^n,
found by walking the grid F_p^n one axis at a time (the walk of
nullstellensatz): each g_i collapses to its restriction at the next node,
and a slab is dropped as soon as some g_i is a nonzero constant on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Mapping, Sequence

from .cover import min_line_cover
from .errors import CounterexampleError
from .field import Field, FieldElement, FieldMismatchError
from .multipoly import MultiPoly
from .nullstellensatz import (GridSystem, _clear_denominators, _collapse, _grid_walk,
                              _require_compatible, _require_polynomial, _weighted_grid_sum,
                              grid_weights)
from .projective import ProjPoint


def verify_cb(f: MultiPoly, system: GridSystem) -> FieldElement:
    """Residual sum alpha_x * f(x) over the grid, reported unconditionally.

    The dependence guarantees a zero residual whenever total_degree(f) is
    at most system.degree_bound.
    """
    _require_compatible(f, system)
    _require_polynomial(f)
    return f.field(_weighted_grid_sum(f, system.nodes))


def _node_index(system: GridSystem) -> list[dict]:
    """Per axis, the map raw node value -> its index in the sorted nodes."""
    return [{a.value: j for j, a in enumerate(ns)} for ns in system.nodes]


def _grid_key(index: list[dict], raw: tuple):
    """The node indices of a raw point, None off the grid."""
    if len(raw) == len(index):
        key = tuple(map(dict.get, index, raw))
        if None not in key:
            return key
    return None


def _target_key(index: list[dict], raw: tuple) -> tuple:
    key = _grid_key(index, raw)
    if key is None:
        raise ValueError(f"target {tuple(map(str, raw))} is not a grid point")
    return key


def forced_value(values: Mapping[tuple, object], system: GridSystem,
                 target: tuple) -> FieldElement:
    """Value at target forced by values on every other grid point, each once.

    For any polynomial within the degree bound the dependence pins its
    last value: v_t = -(sum over x != t of alpha_x v_x) / alpha_t.  Each
    value is keyed by the node indices of its point, and the value map is
    contracted one axis at a time against that axis's weights indexed by
    node; alpha_t is the contraction of the indicator of t.  All-zero
    inputs force zero.
    """
    field = system.field
    index = _node_index(system)

    def raw(pt) -> tuple:
        return tuple(field(x).value for x in pt)

    target = raw(target)
    at = _target_key(index, target)
    given, stray = {}, set()
    for pt, v in values.items():
        pt = raw(pt)
        key = _grid_key(index, pt)
        if pt in stray if key is None else key in given:
            raise ValueError(f"point {tuple(map(str, pt))} is given twice")
        v = field(v).value
        if key is None:
            stray.add(pt)
        else:
            given[key] = v
    return _forced_by_index(system, given, stray, target, at)


def _forced_by_index(system: GridSystem, given: dict, stray, target: tuple,
                     at: tuple) -> FieldElement:
    """forced_value on records keyed by node index: given maps the node
    indices of the points on the grid to raw values, stray holds the raw
    points off it, and the raw target has the node indices at."""
    extra = list(stray) + [target] * (at in given)
    short = prod(system.sizes) - 1 - len(given) + (at in given)
    if short > 0:
        # stops at the first gap, after at most len(given) + 2 points
        first = next(key for key in product(*map(range, system.sizes))
                     if key != at and key not in given)
        raise ValueError(f"values missing for {short} grid points, e.g. "
                         f"{tuple(str(ns[j]) for ns, j in zip(system.nodes, first))}")
    if extra:
        raise ValueError(f"unexpected points in values, "
                         f"e.g. {tuple(map(str, min(extra)))}")
    field = system.field
    p = field.modulus
    tables = [dict(enumerate(_clear_denominators(grid_weights(ns), p)[0].values()))
              for ns in system.nodes]

    def contract(vals) -> int:
        for t in tables:
            vals = _collapse(vals, t, p)
        return vals.get((), 0)
    given, m = _clear_denominators(given, p)
    total, alpha = contract(given), contract({at: 1})
    if p:
        return -field(total) * field(alpha).inv()
    return field(Fraction(-total, m * alpha))


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
            if g.terms.get(lead) != 1:
                raise ValueError(f"equation {i}: coefficient at the pure power must be 1")
            degrees.append(k)
        self.field = field
        self.polys = polys
        self.degrees = tuple(degrees)

    @property
    def nvars(self) -> int:
        return len(self.polys)

    def solutions(self) -> list[tuple]:
        """All common zeros in F_p^n, sorted.

        F_p^n is the grid with every node set equal to F_p, walked in
        row-major (sorted) order.  At each node of the next axis every
        g_i collapses on raw residues to its restriction there, and the
        slab behind the node is skipped when some g_i has become a nonzero
        constant; a dense system still reaches all p^n leaves, hence the
        cap.
        """
        p = self.field.modulus
        if p ** self.nvars > self.MAX_ENUMERATION:
            raise ValueError(
                f"enumeration of {p}^{self.nvars} points exceeds the desk-scale cap")
        nodes = [tuple(self.field.elements())] * self.nvars
        return list(_grid_walk([g.terms for g in self.polys], nodes, p,
                               lambda maps: any(len(g) == 1 and not any(next(iter(g)))
                                                for g in maps)))


@dataclass(frozen=True)
class HypersurfaceVerdict:
    """Outcome of checking the nonvanishing statement on one system; the
    witness is set exactly when the statement applies."""

    solutions: tuple
    expected_count: int
    hypothesis_ok: bool
    degree_ok: bool
    target_exponent: tuple
    target_coefficient: FieldElement
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
    expected = prod(system.degrees)
    hypothesis_ok = len(sols) == expected
    degree_ok = f.total_degree() <= sum(system.degrees) - system.nvars
    target = tuple(k - 1 for k in system.degrees)
    coeff = f.coefficient(target)
    witness = None
    value = None
    if hypothesis_ok and degree_ok and not coeff.is_zero():
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
        witness=witness, witness_value=value)
