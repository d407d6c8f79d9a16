"""Support polytopes, the unfolded criterion, and vertex residues.

For a form f/(g_1...g_n) dz with an unfolded system of support polytopes,
the residue sum over the common zeros in the torus equals a signed integer
combination of vertex residues of the Minkowski-sum polytope.  Vertex
residues are constant terms of truncated geometric-series expansions and
are computed exactly; the integer weights are never assumed but recovered
from sample numerators by exact linear solving.  The functions take the
system and the numerator f; residues, Jacobian weights and the weight
system run on raw values (ints mod p, Fractions over Q) and only the
returned scalars are field elements.

The vertex residue is a linear functional of the numerator: the series at
a vertex depends only on the vertex, its direction and the truncation
depth, and each numerator reads its residue off it.  So the weight solve
expands one series per vertex, to the depth its deepest sample needs, and
every sample reads it.  Each system derives its sum polytope and one
strict support direction per vertex once, on first read, and the split,
the solve and the combination share them.  A residue sum over a grid's
zeros is nullstellensatz's grid kernel; over other zeros one walk gives
those of all samples.
The depth of a series grows with the numerator's exponents, so each
expansion counts its work against an optional budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import BudgetExceededError
from .field import FieldElement, FieldMismatchError
from .linalg import _inverse, determinant, solve_linear
from .multipoly import MultiPoly, _add_terms, _eval_terms, _mul_terms
from .nullstellensatz import _weighted_grid_sum
from .polytope import LatticePolytope, strict_support_direction, _dot


def newton_polytope(f: MultiPoly, budget: int | None = None) -> LatticePolytope:
    """Convex hull of the exponent vectors of the nonzero terms; budget
    bounds the hull's work (see polytope._beneath_beyond)."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no support polytope")
    return LatticePolytope.from_points(f.terms.keys(), budget)


class NewtonSystem:
    """n Laurent polynomials in n variables with their support polytopes;
    their Minkowski sum and its vertex directions are derived on first read."""

    def __init__(self, polys: Sequence[MultiPoly]):
        polys = tuple(polys)
        if not polys:
            raise ValueError("empty system")
        field = polys[0].field
        n = polys[0].nvars
        if len(polys) != n:
            raise ValueError(f"{len(polys)} polynomials for {n} variables")
        for g in polys:
            if g.field != field:
                raise FieldMismatchError("mixed fields in system")
            if g.nvars != n:
                raise ValueError("mixed arities in system")
            if g.is_zero():
                raise ValueError("zero polynomial in system")
        self.field = field
        self.nvars = n
        self.polys = polys
        self.polytopes = tuple(newton_polytope(g) for g in polys)

    @cached_property
    def sum_polytope(self) -> LatticePolytope:
        total = self.polytopes[0]
        for p in self.polytopes[1:]:
            total = total.minkowski_sum(p)
        return total

    @cached_property
    def vertex_directions(self) -> dict:
        """{vertex: strict support direction}, in sum-polytope vertex order."""
        total = self.sum_polytope
        directions = {}
        for v in total.vertices:
            u = strict_support_direction(total, v)
            if u is None:
                raise ValueError(f"no strict support direction at vertex {v}")
            directions[v] = u
        return directions


def is_unfolded(system: NewtonSystem):
    """(True, None) when every positive-codimension face of the sum polytope
    decomposes with a zero-dimensional summand; else (False, witness).

    The normal fan of the sum polytope is the common refinement of the
    summands' fans, so the summands' faces are constant on the relative
    interior of each of its cones: one direction per face of the sum
    decides the test.  A face fails when every summand face in it has
    positive dimension, and then every larger face fails too, since the
    summand faces only grow; so the maximal faces alone decide it.  These
    are the facets of a full-dimensional sum, else the whole sum.
    """
    if system.nvars > 3:
        raise ValueError("unfolded test implemented for dimension <= 3 only")
    for u in system.sum_polytope.maximal_face_directions():
        if not any(p.face_in_direction(u).is_vertex_polytope()
                   for p in system.polytopes):
            return False, u
    return True, None


def _require_numerator(system: NewtonSystem, f: MultiPoly):
    if f.field != system.field:
        raise FieldMismatchError("numerator field differs from system field")
    if f.nvars != system.nvars:
        raise ValueError("numerator arity differs from system arity")


@dataclass(frozen=True)
class VertexSplit:
    """Vertices of the sum polytope split by position relative to the
    shifted numerator polytope: on its boundary (zero part) or strictly
    outside (plus part)."""

    v_plus: tuple
    v_zero: tuple


def vertex_split(system: NewtonSystem, f: MultiPoly) -> VertexSplit:
    """Split the sum polytope's vertices against N(f) + (1, ..., 1).

    Each vertex must admit a supporting halfspace touching the sum
    polytope only at that vertex with the shifted numerator polytope kept
    out of its interior; violations are reported by vertex.  A vertex whose
    vertex_directions entry keeps the shifted numerator polytope weakly
    below it passes at once; only the others ask for another direction.
    A one-term numerator (every default sample) is its own polytope, so
    it builds no hull.
    """
    directions = system.vertex_directions
    if f.is_zero():
        raise ValueError("zero numerator has no support polytope")
    if f.nvars != system.nvars:
        raise ValueError("numerator arity differs from system arity")
    if len(f.terms) == 1:
        vertices = tuple(f.terms)
        contains = vertices.__contains__
    else:
        support = newton_polytope(f)
        vertices, contains = support.vertices, support.contains
    shifted = [tuple(c + 1 for c in s) for s in vertices]
    total = system.sum_polytope
    plus, zero = [], []
    for v, u in directions.items():
        level = _dot(u, v)
        if (any(_dot(u, s) > level for s in shifted)
                and strict_support_direction(total, v, dominated=shifted) is None):
            raise ValueError(
                f"support halfspace assumption violated at vertex {v}")
        (zero if contains(tuple(c - 1 for c in v)) else plus).append(v)
    return VertexSplit(v_plus=tuple(plus), v_zero=tuple(zero))


def _vertex_residues(system: NewtonSystem, numerators: Sequence[MultiPoly],
                     vertex: tuple, u: tuple, budget: int | None = None) -> list:
    """Raw vertex residues at vertex, one per nonzero numerator, read off
    one expansion.

    The truncation bound of f is the largest u-weight T_f on the support
    of f * z^{(1,...,1) - v}.  The series is expanded once, to the floor
    -max T_f; its factors all have nonpositive u-weight, so its terms of
    weight at least -T_f are those an expansion to that floor gives.  Each
    f reads sum_m f_m * S[v - (1,...,1) - m] / prod c_i, and a numerator
    with T_f < 0 reads 0.

    The depth grows with the numerator's exponents, so the expansion
    counts its work: one unit per pair of terms a product multiplies and
    per term a partial sum of a series holds.  Past budget units
    BudgetExceededError(budget) is raised.
    """
    p = system.field.modulus
    n = system.nvars
    leads = []
    lead_product = 1
    for i, g in enumerate(system.polys):
        weights = {m: _dot(u, m) for m in g.terms}
        top = max(weights.values())
        leaders = [m for m, w in weights.items() if w == top]
        if len(leaders) != 1:
            raise ValueError(
                f"direction {u} does not strictly support the support of g_{i + 1}")
        v_i = leaders[0]
        lead_product *= g.terms[v_i]
        leads.append((g, v_i))

    if tuple(sum(vs) for vs in zip(*(v_i for _, v_i in leads))) != vertex:
        raise ValueError(
            f"{vertex} is not the sum-polytope vertex selected by direction {u}")

    scale = _inverse(lead_product, p)
    zero = 0 * scale
    offset = sum(u) - _dot(u, vertex)
    bounds = [max(_dot(u, m) for m in f.terms) + offset for f in numerators]
    depth = max(bounds)
    if depth < 0:
        return [zero] * len(numerators)

    work = 0

    def spend(units):
        nonlocal work
        work += units
        if budget is not None and work > budget:
            raise BudgetExceededError(budget)

    def truncated_product(a, b):
        spend(len(a) * len(b))
        return {m: c for m, c in _mul_terms(a, b, p).items() if _dot(u, m) >= -depth}

    unit = {(0,) * n: 1}
    series_product = unit
    # at depth 0 each factor's series is its constant 1
    for g, v_i in leads if depth else ():
        minus_inv = -_inverse(g.terms[v_i], p)
        neg_h = {tuple(x - y for x, y in zip(m, v_i)):
                 c * minus_inv % p if p else c * minus_inv
                 for m, c in g.terms.items() if m != v_i}
        series = power = unit
        for _ in range(depth):
            power = truncated_product(power, neg_h)
            if not power:
                break
            series = _add_terms(series, power, p)
            spend(len(series))
        series_product = truncated_product(series_product, series)

    out = []
    for f, bound in zip(numerators, bounds):
        constant = 0
        if bound >= 0:
            for m, c in f.terms.items():
                s = series_product.get(tuple(a - 1 - b for a, b in zip(vertex, m)))
                if s is not None:
                    constant += c * s
        out.append(zero if not constant else constant * scale % p if p else constant * scale)
    return out


def vertex_residue(system: NewtonSystem, f: MultiPoly, vertex: Sequence[int],
                   direction: Sequence[int]) -> FieldElement:
    """Constant term of the prescribed expansion of f/(g_1...g_n) at an
    unfolded vertex.

    Writes g_i = c_i z^{v_i} (1 + h_i) where the direction strictly
    supports v_i on each support, expands every (1 + h_i)^{-1} as a
    geometric series truncated by the direction weight, multiplies by
    f * z^{(1,...,1) - v}, and reads off the exponent-zero coefficient.
    The truncation keeps every term of weight at least -T where T is the
    largest direction weight over the support of f * z^{(1,...,1) - v};
    omitted terms sit strictly below weight zero and cannot contribute.
    The series are raw term maps multiplied by multipoly's sparse product
    and truncated after each product.  This is the one-numerator read of
    the expansion that solve_vertex_coefficients makes once per vertex for
    all its samples, to the depth the deepest of them needs.
    """
    _require_numerator(system, f)
    u = tuple(int(c) for c in direction)
    if len(u) != system.nvars or not any(u):
        raise ValueError("support direction must be a nonzero integer vector")
    vertex = tuple(int(c) for c in vertex)
    if f.is_zero():
        raise ValueError("zero numerator: truncation bound undefined")
    return system.field(_vertex_residues(system, [f], vertex, u)[0])


class SimpleZeros:
    """Common zeros of a system in the torus, each simple, weighted by 1/det J.

    Holds the points as given.  The checks (arity, repeats, all
    coordinates nonzero, a zero of every g_i, nonzero Jacobian
    determinant) and the determinants run once, on the first read of
    ``weighted``: a caller summing several numerators over the same zeros
    pays for them once, and an invalid zero raises where the first residue
    sum would.

    ``SimpleZeros.of_grid(grid)`` holds the grid's points as the zeros of
    the separable system g_i = phi_i(z_i) that it builds.  There every
    point is a distinct common zero and the Jacobian is diagonal, so a
    residue sum is the grid kernel's weighted sum, and only the torus is
    checked, per node; ``weighted`` checks it too, then computes the
    Jacobians as for any zeros.
    """

    def __init__(self, system: NewtonSystem, points: Sequence[Sequence]):
        self.system = system
        self.points = points
        self.grid = None

    @classmethod
    def of_grid(cls, grid) -> "SimpleZeros":
        """The points of a GridSystem, zeros of its separable system."""
        zeros = cls(NewtonSystem(grid.polys_multivariate()), tuple(grid.points()))
        zeros.grid = grid
        return zeros

    def _check(self):
        """The checks a residue sum needs: the torus, or those of weighted."""
        if self.grid is None:
            return self.weighted
        for i, nodes in enumerate(self.grid.nodes):
            if not all(nodes):
                raise ValueError(f"node set {i} contains 0: its points leave the torus")

    @cached_property
    def weighted(self) -> list[tuple]:
        """(point, 1/det J(point)) per zero, in the given order, as raw
        values (ints mod p, Fractions over Q)."""
        if self.grid is not None:
            self._check()
        system = self.system
        field = system.field
        p = field.modulus
        n = system.nvars
        jacobian = [[g.partial_derivative(j).terms for j in range(n)] for g in system.polys]
        out = []
        seen = set()
        for raw in self.points:
            point = tuple(field(c).value for c in raw)
            if len(point) != n:
                raise ValueError("zero of wrong arity")
            if point in seen:
                raise ValueError(f"repeated zero {tuple(map(str, point))}")
            seen.add(point)
            if not all(point):
                raise ValueError(f"point {tuple(map(str, point))} has a zero coordinate")
            for i, g in enumerate(system.polys):
                if _eval_terms(g.terms, point, p):
                    raise ValueError(
                        f"point {tuple(map(str, point))} is not a zero of g_{i + 1}")
            det = determinant([[_eval_terms(entry, point, p) for entry in row]
                               for row in jacobian], p)
            if not det:
                raise ValueError(
                    f"singular Jacobian at {tuple(map(str, point))}: zero is not simple")
            out.append((point, _inverse(det, p)))
        return out


def _simple_zeros(system: NewtonSystem, zeros) -> SimpleZeros:
    if not isinstance(zeros, SimpleZeros):
        return SimpleZeros(system, zeros)
    if zeros.system is not system:
        raise ValueError("zeros were checked against another system")
    return zeros


def _residue_sums(system: NewtonSystem, numerators: Sequence[MultiPoly],
                  zeros: SimpleZeros) -> list:
    """Raw sums of f(z)/det J(z) over the zeros, one per numerator: the
    grid kernel's over grid zeros, else one walk of raw evaluations."""
    zeros._check()
    if zeros.grid is not None:
        return [_weighted_grid_sum(f, zeros.grid.nodes) for f in numerators]
    p = system.field.modulus
    sums = [0] * len(numerators)
    for point, weight in zeros.weighted:
        for j, f in enumerate(numerators):
            sums[j] += _eval_terms(f.terms, point, p) * weight
    return [s % p for s in sums] if p else sums


def residue_sum_over_zeros(system: NewtonSystem, f: MultiPoly,
                           zeros: Sequence[Sequence]) -> FieldElement:
    """Sum of f(z)/det(Jacobian of g)(z) over simple common zeros.

    Each point must be a common zero with nonzero Jacobian determinant and
    all coordinates nonzero (the zeros live in the torus).  zeros may be a
    SimpleZeros of the system, whose checks then run at most once.
    """
    _require_numerator(system, f)
    zeros = _simple_zeros(system, zeros)
    return system.field(_residue_sums(system, [f], zeros)[0])


@dataclass(frozen=True)
class VertexCoefficients:
    """Integer vertex weights recovered from sample numerators."""

    values: dict
    unconstrained: tuple
    rank: int
    anomalies: tuple


def solve_vertex_coefficients(system: NewtonSystem, zeros: Sequence,
                              samples: Sequence[MultiPoly],
                              budget: int | None = None) -> VertexCoefficients:
    """Solve residue-sum = (-1)^n * sum_v k_v * vertex-residue for the k_v.

    One equation per sample numerator; every sample must satisfy the
    vertex split assumption.  Vertices whose weight the samples do not pin
    down are reported as unconstrained rather than guessed.  Over the
    rationals the determined weights are verified to be integers; over a
    prime field they are lifted to the symmetric range.  A vertex of a
    full-dimensional sum polytope on the zero side of some split, meeting
    exactly n facets, with recovered weight zero is flagged as an anomaly.

    The directions of system.vertex_directions serve every sample's split
    and the combination, and every sample reads one series expansion per
    vertex, to the depth the deepest sample needs (every factor has
    nonpositive u-weight, so a deeper expansion keeps the terms a
    shallower one has).  With the default samples that depth is 0, since
    z^{w - (1,...,1)} has bound <u, w - v> < 0 at every other vertex v.
    The residue sums are those of _residue_sums.  The checks keep the
    order of a sample-by-sample solve: the first sample's split and field,
    then the zeros, then the later samples'.  The system is solved on raw
    values.  budget bounds each vertex's expansion (see _vertex_residues).
    """
    samples = list(samples)
    if not samples:
        raise ValueError("underdetermined: no sample numerators given")
    zeros = _simple_zeros(system, zeros)
    p = system.field.modulus
    n = system.nvars
    total = system.sum_polytope
    vertices = total.vertices
    directions = system.vertex_directions
    zero_side: set = set()
    for k, f in enumerate(samples):
        zero_side.update(vertex_split(system, f).v_zero)
        _require_numerator(system, f)
        if k == 0:
            zeros._check()  # the zeros are checked before the later samples
    sign = -1 if n % 2 else 1
    columns = [_vertex_residues(system, samples, v, u, budget)
               for v, u in directions.items()]
    rows = [[(sign * x) % p if p else sign * x for x in row] for row in zip(*columns)]
    rhs = _residue_sums(system, samples, zeros)
    solution = solve_linear(rows, rhs, p)
    if not solution.consistent:
        raise ValueError(
            "inconsistent vertex weight system; residuals "
            + ", ".join(str(r) for r in solution.residuals))
    values = {}
    for col, value in solution.determined.items():
        if p:
            lifted = value if value <= p // 2 else value - p
        else:
            if value.denominator != 1:
                raise ValueError(
                    f"vertex weight {value} at {vertices[col]} is not an integer")
            lifted = int(value)
        values[vertices[col]] = lifted
    unconstrained = tuple(vertices[c] for c in solution.undetermined)
    anomalies = []
    if total.affine_dim() == n:
        for v, k in values.items():
            if k == 0 and v in zero_side and total.vertex_facet_count(v) == n:
                anomalies.append(v)
    return VertexCoefficients(values=values, unconstrained=unconstrained,
                              rank=solution.rank, anomalies=tuple(anomalies))


def default_samples(system: NewtonSystem) -> list[MultiPoly]:
    """One Laurent monomial z^{v - (1,...,1)} per vertex of the sum polytope.

    Each such monomial satisfies the vertex split assumption (its shifted
    support polytope is the vertex itself), and together they probe every
    vertex weight directly.
    """
    field = system.field
    n = system.nvars
    out = []
    for v in system.sum_polytope.vertices:
        mono = tuple(c - 1 for c in v)
        out.append(MultiPoly.from_terms(field, n, {mono: 1}))
    return out


def weighted_vertex_combination(system: NewtonSystem, f: MultiPoly,
                                coefficients: VertexCoefficients,
                                budget: int | None = None) -> FieldElement:
    """(-1)^n * sum of k_v * vertex residues of f/(g_1...g_n).

    Unconstrained vertices must have vanishing residue on this numerator,
    otherwise the combination is not determined and a ValueError is raised.
    f is checked once, as vertex_residue checks it.  budget bounds each
    vertex's expansion (see _vertex_residues).
    """
    directions = system.vertex_directions
    _require_numerator(system, f)
    if f.is_zero():
        raise ValueError("zero numerator: truncation bound undefined")
    acc = 0
    for v, u in directions.items():
        res, = _vertex_residues(system, [f], v, u, budget)
        if v in coefficients.values:
            acc += coefficients.values[v] * res
        elif res:
            raise ValueError(
                f"vertex {v} has unconstrained weight but nonzero residue {res}")
    return system.field(-acc if system.nvars % 2 else acc)
