"""Support polytopes, the unfolded criterion, and vertex residues.

For a form f/(g_1...g_n) dz with an unfolded system of support polytopes,
the residue sum over the common zeros in the torus equals a signed integer
combination of vertex residues of the Minkowski-sum polytope.  Vertex
residues are constant terms of truncated geometric-series expansions and
are computed exactly; the integer weights are never assumed but recovered
from sample numerators by exact linear solving.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .field import FieldElement, FieldMismatchError
from .linalg import determinant, solve_linear
from .multipoly import MultiPoly, _add_terms, _mul_terms
from .polytope import (LatticePolytope, sign_normalized,
                       strict_support_direction, _cross3, _dot)


def newton_polytope(f: MultiPoly) -> LatticePolytope:
    """Convex hull of the exponent vectors of the nonzero terms."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no support polytope")
    return LatticePolytope.from_points(f.terms.keys())


class NewtonSystem:
    """n Laurent polynomials in n variables with their support polytopes."""

    __slots__ = ("field", "nvars", "polys", "polytopes", "sum_polytope")

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
        total = self.polytopes[0]
        for p in self.polytopes[1:]:
            total = total.minkowski_sum(p)
        self.sum_polytope = total


class ToricForm:
    """Numerator f over the product g_1 * ... * g_n."""

    __slots__ = ("numerator", "system")

    def __init__(self, numerator: MultiPoly, system: NewtonSystem):
        if numerator.field != system.field:
            raise FieldMismatchError("numerator field differs from system field")
        if numerator.nvars != system.nvars:
            raise ValueError("numerator arity differs from system arity")
        self.numerator = numerator
        self.system = system


def _unfolded_candidates(system: NewtonSystem) -> list[tuple]:
    """Finite direction set meeting every cone of the refined normal fans.

    A direction on which every polytope's face is at least one-dimensional
    must lie on a wall of every fan; walls live in hyperplanes orthogonal
    to vertex-difference vectors, so the candidates below cover all of
    them (dimension 2), respectively all wall intersections, wall-cone
    boundary rays, and in-wall bases (dimension 3).
    """
    n = system.nvars
    polytopes = list(system.polytopes) + [system.sum_polytope]
    diffs: set = set()
    for p in polytopes:
        diffs.update(p.edge_difference_vectors())
    diffs = sorted(diffs)
    reps: set = set()
    if n == 2:
        for d in diffs:
            reps.add(sign_normalized((d[1], -d[0])))
    else:
        for p in polytopes:
            ad = p.affine_dim()
            if ad == 3:
                for w in p.facet_normals():
                    reps.add(sign_normalized(w))
            elif ad == 2:
                reps.add(p.plane_normal())
        for i in range(len(diffs)):
            for j in range(i + 1, len(diffs)):
                w = _cross3(diffs[i], diffs[j])
                if any(w):
                    reps.add(sign_normalized(w))
        for d in diffs:
            axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
            basis = [w for w in (_cross3(d, a) for a in axes) if any(w)]
            reps.add(sign_normalized(basis[0]))
            second = _cross3(d, basis[0])
            if any(second):
                reps.add(sign_normalized(second))
    ordered = sorted(reps)
    return ordered + [tuple(-c for c in u) for u in ordered]


def is_unfolded(system: NewtonSystem):
    """(True, None) when every positive-codimension face of the sum polytope
    decomposes with a zero-dimensional summand; else (False, witness)."""
    n = system.nvars
    if n > 3:
        raise ValueError("unfolded test implemented for dimension <= 3 only")
    if n == 1:
        return True, None
    for u in _unfolded_candidates(system):
        if not any(p.face_in_direction(u).is_vertex_polytope()
                   for p in system.polytopes):
            return False, u
    return True, None


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
    out of its interior; violations are reported by vertex.
    """
    if f.is_zero():
        raise ValueError("zero numerator has no support polytope")
    if f.nvars != system.nvars:
        raise ValueError("numerator arity differs from system arity")
    ones = (1,) * system.nvars
    shifted = newton_polytope(f).translate(ones)
    total = system.sum_polytope
    plus, zero = [], []
    for v in total.vertices:
        u = strict_support_direction(total, v, dominated=shifted.vertices)
        if u is None:
            raise ValueError(
                f"support halfspace assumption violated at vertex {v}")
        (zero if shifted.contains(v) else plus).append(v)
    return VertexSplit(v_plus=tuple(plus), v_zero=tuple(zero))


def vertex_residue(form: ToricForm, vertex: Sequence[int],
                   direction: Sequence[int]) -> FieldElement:
    """Constant term of the prescribed expansion at an unfolded vertex.

    Writes g_i = c_i z^{v_i} (1 + h_i) where the direction strictly
    supports v_i on each support, expands every (1 + h_i)^{-1} as a
    geometric series truncated by the direction weight, multiplies by
    f * z^{(1,...,1) - v}, and reads off the exponent-zero coefficient.
    The truncation keeps every term of weight at least -T where T is the
    largest direction weight over the support of f * z^{(1,...,1) - v};
    omitted terms sit strictly below weight zero and cannot contribute.
    The series are raw term maps multiplied by multipoly's sparse product
    and truncated after each product.
    """
    system = form.system
    field = system.field
    p = field.modulus
    n = system.nvars
    u = tuple(int(c) for c in direction)
    if len(u) != n or not any(u):
        raise ValueError("support direction must be a nonzero integer vector")
    vertex = tuple(int(c) for c in vertex)
    if form.numerator.is_zero():
        raise ValueError("zero numerator: truncation bound undefined")

    parts = []
    lead_product = field.one
    for i, g in enumerate(system.polys):
        weights = {m: _dot(u, m) for m in g.terms}
        top = max(weights.values())
        leaders = [m for m, w in weights.items() if w == top]
        if len(leaders) != 1:
            raise ValueError(
                f"direction {u} does not strictly support the support of g_{i + 1}")
        v_i = leaders[0]
        c_i = FieldElement(field, g.terms[v_i])
        lead_product = lead_product * c_i
        minus_inv = (-c_i.inv()).value
        rest = {tuple(x - y for x, y in zip(m, v_i)):
                c * minus_inv % p if p else c * minus_inv
                for m, c in g.terms.items() if m != v_i}
        parts.append((v_i, rest))

    if tuple(sum(vs) for vs in zip(*(v_i for v_i, _ in parts))) != vertex:
        raise ValueError(
            f"{vertex} is not the sum-polytope vertex selected by direction {u}")

    ones = (1,) * n
    shifted = form.numerator.shift(tuple(a - b for a, b in zip(ones, vertex)))
    bound = max(_dot(u, m) for m in shifted.terms)
    if bound < 0:
        return field.zero
    floor = -bound

    def truncated_product(a, b):
        return {m: c for m, c in _mul_terms(a, b, p).items() if _dot(u, m) >= floor}

    unit = {(0,) * n: field.one.value}
    series_product = unit
    for _, neg_h in parts:
        series = power = unit
        for _ in range(bound):
            power = truncated_product(power, neg_h)
            if not power:
                break
            series = _add_terms(series, power, p)
        series_product = truncated_product(series_product, series)

    constant = field.zero.value
    for m, c in series_product.items():
        other = shifted.terms.get(tuple(-x for x in m))
        if other is not None:
            constant += c * other
    return field(constant) * lead_product.inv()


class SimpleZeros:
    """Common zeros of a system in the torus, each simple, weighted by 1/det J.

    Holds the points as given.  The checks (arity, repeats, all
    coordinates nonzero, a zero of every g_i, nonzero Jacobian
    determinant) and the determinants run once, on the first read of
    ``weighted``: a caller summing several numerators over the same zeros
    pays for them once, and an invalid zero raises where the first residue
    sum would.
    """

    def __init__(self, system: NewtonSystem, points: Sequence[Sequence]):
        self.system = system
        self.points = points

    @cached_property
    def weighted(self) -> list[tuple]:
        """(point, 1/det J(point)) per zero, in the given order."""
        system = self.system
        field = system.field
        n = system.nvars
        jacobian = [[g.partial_derivative(j) for j in range(n)] for g in system.polys]
        out = []
        seen = set()
        for raw in self.points:
            point = tuple(field(c) for c in raw)
            if len(point) != n:
                raise ValueError("zero of wrong arity")
            if point in seen:
                raise ValueError(f"repeated zero {tuple(map(str, point))}")
            seen.add(point)
            if any(c.is_zero() for c in point):
                raise ValueError(f"point {tuple(map(str, point))} has a zero coordinate")
            for i, g in enumerate(system.polys):
                if not g.evaluate(point).is_zero():
                    raise ValueError(
                        f"point {tuple(map(str, point))} is not a zero of g_{i + 1}")
            rows = [[entry.evaluate(point) for entry in row] for row in jacobian]
            det = determinant(rows, field)
            if det.is_zero():
                raise ValueError(
                    f"singular Jacobian at {tuple(map(str, point))}: zero is not simple")
            out.append((point, det.inv()))
        return out


def _simple_zeros(system: NewtonSystem, zeros) -> SimpleZeros:
    if not isinstance(zeros, SimpleZeros):
        return SimpleZeros(system, zeros)
    if zeros.system is not system:
        raise ValueError("zeros were checked against another system")
    return zeros


def residue_sum_over_zeros(form: ToricForm, zeros: Sequence[Sequence]) -> FieldElement:
    """Sum of f(z)/det(Jacobian of g)(z) over simple common zeros.

    Each point must be a common zero with nonzero Jacobian determinant and
    all coordinates nonzero (the zeros live in the torus).  zeros may be a
    SimpleZeros of the form's system, whose checks then run at most once.
    """
    f = form.numerator
    total = form.system.field.zero
    for point, weight in _simple_zeros(form.system, zeros).weighted:
        total = total + f.evaluate(point) * weight
    return total


@dataclass(frozen=True)
class VertexCoefficients:
    """Integer vertex weights recovered from sample numerators."""

    values: dict
    unconstrained: tuple
    rank: int
    anomalies: tuple


def solve_vertex_coefficients(system: NewtonSystem, zeros: Sequence,
                              samples: Sequence[MultiPoly]) -> VertexCoefficients:
    """Solve residue-sum = (-1)^n * sum_v k_v * vertex-residue for the k_v.

    One equation per sample numerator; every sample must satisfy the
    vertex split assumption.  Vertices whose weight the samples do not pin
    down are reported as unconstrained rather than guessed.  Over the
    rationals the determined weights are verified to be integers; over a
    prime field they are lifted to the symmetric range.  A vertex of a
    full-dimensional sum polytope on the zero side of some split, meeting
    exactly n facets, with recovered weight zero is flagged as an anomaly.
    The zeros are checked, and their Jacobians computed, once for all
    samples.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("underdetermined: no sample numerators given")
    zeros = _simple_zeros(system, zeros)
    field = system.field
    n = system.nvars
    total = system.sum_polytope
    vertices = total.vertices
    directions = {}
    for v in vertices:
        u = strict_support_direction(total, v)
        if u is None:
            raise ValueError(f"no strict support direction at vertex {v}")
        directions[v] = u
    sign = field(-1) if n % 2 else field.one
    zero_side: set = set()
    rows, rhs = [], []
    for f in samples:
        split = vertex_split(system, f)
        zero_side.update(split.v_zero)
        form = ToricForm(f, system)
        rows.append([sign * vertex_residue(form, v, directions[v]) for v in vertices])
        rhs.append(residue_sum_over_zeros(form, zeros))
    solution = solve_linear(rows, rhs, field)
    if not solution.consistent:
        raise ValueError(
            "inconsistent vertex weight system; residuals "
            + ", ".join(str(r) for r in solution.residuals))
    values = {}
    for col, value in solution.determined.items():
        if field.is_prime_field:
            lifted = value.value if value.value <= field.modulus // 2 \
                else value.value - field.modulus
        else:
            if value.value.denominator != 1:
                raise ValueError(
                    f"vertex weight {value} at {vertices[col]} is not an integer")
            lifted = int(value.value)
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


def weighted_vertex_combination(form: ToricForm,
                                coefficients: VertexCoefficients) -> FieldElement:
    """(-1)^n * sum of k_v * vertex residues for the given numerator.

    Unconstrained vertices must have vanishing residue on this numerator,
    otherwise the combination is not determined and a ValueError is raised.
    """
    system = form.system
    field = system.field
    total = system.sum_polytope
    sign = field(-1) if system.nvars % 2 else field.one
    acc = field.zero
    for v in total.vertices:
        u = strict_support_direction(total, v)
        res = vertex_residue(form, v, u)
        if v in coefficients.values:
            acc = acc + field(coefficients.values[v]) * res
        elif not res.is_zero():
            raise ValueError(
                f"vertex {v} has unconstrained weight but nonzero residue {res}")
    return sign * acc
