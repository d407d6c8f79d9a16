"""Lattice polytopes with exact integer hulls.

Each polytope computes its hull once, on exact ints.  The hull finds the
affine dimension k of the generating points and projects them onto k
coordinates that are injective on their affine hull (convexity is
preserved).  One beneath-beyond kernel then runs for every k >= 1.  The
vertices, the facets as (primitive outer normal, level) pairs, point
membership, strict supporting directions (the sum of the outer normals of
the facets through a vertex) and one direction per maximal face are all
read from it.  The facets of a k-dimensional hull of m points can number
m^(k/2), so the kernel counts its work and stops at an optional budget.
Facet enumeration is exposed for ambient dimension up to three.  The
exact phase-one simplex solve_nonnegative is kept only as the oracle the
hull is tested against; no library path calls it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .errors import BudgetExceededError

IntVec = tuple  # tuple[int, ...]


def _pivot(tab, z, row, col, width):
    inv = Fraction(1) / tab[row][col]
    tab[row] = [v * inv for v in tab[row]]
    for i, other in enumerate(tab):
        if i != row and other[col]:
            f = other[col]
            tab[i] = [a - f * b for a, b in zip(other, tab[row])]
    if z[col]:
        f = z[col]
        for j in range(width):
            z[j] -= f * tab[row][j]


def solve_nonnegative(rows: Sequence[Sequence], rhs: Sequence):
    """Exact feasibility: x >= 0 with rows . x == rhs, or None.

    Phase-one simplex with Bland's rule, so termination is guaranteed.
    """
    m = len(rows)
    if m == 0:
        return []
    k = len(rows[0])
    A, b = [], []
    for row, beta in zip(rows, rhs):
        beta = Fraction(beta)
        if beta < 0:
            A.append([-Fraction(v) for v in row])
            b.append(-beta)
        else:
            A.append([Fraction(v) for v in row])
            b.append(beta)
    total = k + m
    width = total + 1
    tab = [A[i] + [Fraction(1 if j == i else 0) for j in range(m)] + [b[i]]
           for i in range(m)]
    basis = list(range(k, k + m))
    # objective: minimize the sum of artificials; z holds reduced costs
    # (subtract the unit cost of each artificial so basic columns start at 0)
    z = [Fraction(0)] * width
    for row in tab:
        for j in range(width):
            z[j] += row[j]
    for i in range(m):
        z[k + i] -= 1
    in_basis = set(basis)
    while True:
        # Bland's rule over structural columns; artificials never re-enter
        enter = next((j for j in range(k) if j not in in_basis and z[j] > 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][total] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            return None
        _pivot(tab, z, leave, enter, width)
        in_basis.discard(basis[leave])
        in_basis.add(enter)
        basis[leave] = enter
    if z[total] != 0:
        return None
    x = [Fraction(0)] * k
    for i, var in enumerate(basis):
        if var < k:
            x[var] = tab[i][total]
    return x


def primitive(vec: Sequence[int]) -> IntVec:
    """Divide out the gcd; zero vectors are rejected."""
    g = gcd(*vec)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(c // g for c in vec)


def _cross3(u, v) -> IntVec:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _sub(u, v) -> IntVec:
    return tuple(a - b for a, b in zip(u, v))


# -- the exact integer hull ---------------------------------------------------

def _reduce(d, rows, cols):
    """d with its components along the echelon rows removed (fraction-free),
    or None when d lies in their span."""
    for r, c in zip(rows, cols):
        if d[c]:
            a, b = r[c], d[c]
            d = [a * x - b * y for x, y in zip(d, r)]
    return d if any(d) else None


class _Hull:
    """Vertices and facets of one point set, plus its affine hull.

    rows is an integer echelon basis of the differences to base; row i is
    zero in the pivot columns cols[:i], so the cols coordinates are
    injective on the affine hull.  facets holds (primitive outer normal,
    level) pairs, lifted from the cols coordinates with zeros, so a point
    of the affine hull lies in the polytope exactly when <normal, x> <=
    level for all of them.
    """

    __slots__ = ("vertices", "facets", "base", "rows", "cols")

    def __init__(self, vertices, facets, base, rows, cols):
        self.vertices = vertices
        self.facets = facets
        self.base = base
        self.rows = rows
        self.cols = cols

    def in_affine_hull(self, point) -> bool:
        return _reduce(_sub(point, self.base), self.rows, self.cols) is None


def _echelon(vecs, limit: int):
    """Primitive echelon rows and pivot columns of the span of vecs, and
    the index of each vector that raised the rank; stops at rank limit."""
    rows, cols, used = [], [], []
    for i, v in enumerate(vecs):
        d = _reduce(v, rows, cols)
        if d is not None:
            rows.append(primitive(d))
            cols.append(next(j for j, c in enumerate(d) if c))
            used.append(i)
            if len(rows) == limit:
                break
    return rows, cols, used


def _integer_hull(pts: list, budget: int | None = None) -> _Hull:
    """Hull of distinct integer points (at least one, sorted); budget
    bounds the kernel's work (see _beneath_beyond), None not at all."""
    base = pts[0]
    rows, cols, used = _echelon((_sub(p, base) for p in pts), len(base))
    if not rows:
        return _Hull((base,), (), base, rows, cols)
    lifted = {tuple(p[c] for c in cols): p for p in pts}
    simplex = [tuple(p[c] for c in cols) for p in [base] + [pts[i] for i in used]]
    verts, facets = _beneath_beyond(simplex, list(lifted), budget)
    n = len(base)

    def lift(w):
        out = [0] * n
        for c, x in zip(cols, w):
            out[c] = x
        return tuple(out)

    return _Hull(tuple(sorted(lifted[v] for v in verts)),
                 tuple(sorted((lift(w), level) for w, level in facets)),
                 base, rows, cols)


def _simplex_normals(simplex: list) -> list:
    """Primitive outer normal of the facet opposite each vertex of a
    k-simplex in Z^k.

    Bareiss's fraction-free Gauss-Jordan elimination on [H^T | I], H the
    rows (1, s_i), divides exactly at every step and ends with det H on
    the diagonal, so row j of the right half is det H times the affine
    function that is 1 at s_j and 0 on the facet opposite it.
    """
    m = len(simplex)
    a = [[1] * m] + [list(col) for col in zip(*simplex)]
    for i, row in enumerate(a):
        row += [0] * m
        row[m + i] = 1
    det = 1
    for c in range(m):
        if not a[c][c]:
            p = next(i for i in range(c + 1, m) if a[i][c])
            a[c], a[p] = a[p], a[c]
        pivot = a[c]
        t = pivot[c]
        for i in range(m):
            if i != c:
                g = a[i][c]
                a[i] = [(t * x - g * y) // det for x, y in zip(a[i], pivot)]
        det = t
    return [primitive([-x if det > 0 else x for x in row[m + 1:]]) for row in a]


def _beneath_beyond(simplex: list, pts: list, budget: int | None) -> tuple[list, list]:
    """Vertices and facets of the hull of distinct points of Z^k that
    contain the k-simplex simplex (Edelsbrunner, Algorithms in
    Combinatorial Geometry, 1987).

    Faces are k-point simplices, stored sorted, each with its primitive
    outer normal and level; ridges maps each (k-1)-point ridge to the
    faces holding it.  Points go in farthest from the simplex's centroid
    first.  A point x sees a face when it lies strictly above it, and
    each horizon ridge, between a seen face (w1, x at height s1 > 0) and
    an unseen one (w2, height s2 <= 0), is coned to x with the normal
    s1*w2 - s2*w1: it vanishes on the ridge and x, and as a positive
    combination of outer normals it points outward.  Coplanar faces share
    their primitive normal and so merge into one facet.  A face point is
    a vertex exactly when the normals of its facets have rank k.

    The facets can number m^(k/2) for m points, so the work is counted:
    one unit per face tested against a point and per ridge written.  Past
    budget units BudgetExceededError(budget) is raised.
    """
    k = len(simplex) - 1
    faces, ridges = {}, {}

    def add(face, w):
        faces[face] = (w, _dot(w, face[0]))
        for i in range(k):
            ridges.setdefault(face[:i] + face[i + 1:], []).append(face)

    simplex = sorted(simplex)
    for i, w in enumerate(_simplex_normals(simplex)):
        add(tuple(simplex[:i] + simplex[i + 1:]), w)
    centre = [sum(c) for c in zip(*simplex)]
    rest = sorted((p for p in pts if p not in simplex), reverse=True,
                  key=lambda p: sum(((k + 1) * a - c) ** 2 for a, c in zip(p, centre)))
    work = 0
    for x in rest:
        work += len(faces)
        seen = {}
        for f, (w, level) in faces.items():
            s = _dot(w, x) - level
            if s > 0:
                seen[f] = s
        cone = []
        for f, s1 in seen.items():
            w1 = faces.pop(f)[0]
            for i in range(k):
                ridge = f[:i] + f[i + 1:]
                pair = ridges[ridge]
                pair.remove(f)
                if pair and pair[0] not in seen:
                    w2, level = faces[pair[0]]
                    s2 = _dot(w2, x) - level
                    cone.append((tuple(sorted(ridge + (x,))),
                                 primitive([s1 * b - s2 * a for a, b in zip(w1, w2)])))
        work += k * len(cone)
        if budget is not None and work > budget:
            raise BudgetExceededError(budget)
        for face, w in cone:
            add(face, w)
    facets, normals = {}, {}
    for face, (w, level) in faces.items():
        facets[w] = level
        for p in face:
            normals.setdefault(p, set()).add(w)
    # below four dimensions k distinct facets meet only at a vertex
    verts = [p for p, ns in normals.items()
             if len(ns) >= k and (k < 4 or len(_echelon(ns, k)[0]) == k)]
    return verts, list(facets.items())


class LatticePolytope:
    """Convex hull of integer points; vertices stored sorted.

    The exact hull is computed once per instance, on first use (from_points
    computes it to find the vertices), and kept in a slot.
    """

    __slots__ = ("dim", "vertices", "points", "_hull")

    def __init__(self, dim: int, vertices: Sequence[IntVec], points: Sequence[IntVec]):
        self.dim = dim
        self.vertices = tuple(vertices)
        self.points = tuple(points)
        self._hull = None

    @classmethod
    def from_points(cls, points: Iterable[IntVec],
                    budget: int | None = None) -> "LatticePolytope":
        pts = sorted(set(tuple(int(c) for c in p) for p in points))
        if not pts:
            raise ValueError("polytope needs at least one point")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise ValueError("mixed dimensions in point set")
        hull = _integer_hull(pts, budget)
        out = cls(dim, hull.vertices, pts)
        out._hull = hull
        return out

    def _hull_data(self) -> _Hull:
        if self._hull is None:
            self._hull = _integer_hull(list(self.vertices))
        return self._hull

    def minkowski_sum(self, other: "LatticePolytope") -> "LatticePolytope":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        sums = {tuple(a + b for a, b in zip(p, q))
                for p in self.vertices for q in other.vertices}
        return LatticePolytope.from_points(sums)

    def face_in_direction(self, direction: Sequence[int]) -> "LatticePolytope":
        """Sub-polytope maximizing the inner product with the direction."""
        u = tuple(int(c) for c in direction)
        if len(u) != self.dim:
            raise ValueError("direction dimension mismatch")
        if not any(u):
            raise ValueError("zero direction has no face")
        scores = [sum(a * b for a, b in zip(u, v)) for v in self.vertices]
        top = max(scores)
        face = tuple(v for v, s in zip(self.vertices, scores) if s == top)
        return LatticePolytope(self.dim, face, face)

    def translate(self, offset: Sequence[int]) -> "LatticePolytope":
        off = tuple(int(c) for c in offset)
        move = lambda p: tuple(a + b for a, b in zip(p, off))
        return LatticePolytope(self.dim, tuple(sorted(map(move, self.vertices))),
                               tuple(sorted(map(move, self.points))))

    def contains(self, point: Sequence[int]) -> bool:
        point = tuple(int(c) for c in point)
        hull = self._hull_data()
        return (hull.in_affine_hull(point)
                and all(_dot(w, point) <= level for w, level in hull.facets))

    def is_vertex_polytope(self) -> bool:
        return len(self.vertices) == 1

    def affine_dim(self) -> int:
        return len(self._hull_data().rows)

    def maximal_face_directions(self) -> list[IntVec]:
        """One primitive direction selecting each maximal face that a
        nonzero direction selects (ambient dimension at most three).

        Read from the hull: the facet normals of a full-dimensional
        polytope; otherwise one normal of the affine hull, which selects
        the whole polytope, or none for a single point.
        """
        if self.dim > 3:
            raise ValueError("face directions implemented for dimension <= 3 only")
        hull = self._hull_data()
        k = len(hull.rows)
        if k in (0, self.dim):
            return [w for w, _ in hull.facets]  # empty for a point
        # cross the rows padded to 3-space, or the one row with an axis
        a, *rest = [tuple(r) + (0,) * (3 - self.dim) for r in hull.rows]
        b = rest[0] if rest else next(e for e in ((0, 0, 1), (1, 0, 0))
                                      if any(_cross3(a, e)))
        return [primitive(_cross3(a, b)[:self.dim])]

    def _facets(self) -> tuple:
        if self.affine_dim() != self.dim:
            raise ValueError("facet normals need a full-dimensional polytope")
        if self.dim > 3:
            raise ValueError("facet enumeration implemented for dimension <= 3 only")
        return self._hull_data().facets

    def facet_normals(self) -> list[IntVec]:
        """Primitive outer normals of all facets (full-dimensional polytopes,
        ambient dimension at most three), sorted."""
        return [w for w, _ in self._facets()]

    def vertex_facet_count(self, vertex: IntVec) -> int:
        """Number of facets through a vertex of a full-dimensional polytope."""
        return sum(1 for w, level in self._facets() if _dot(w, vertex) == level)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LatticePolytope)
                and self.dim == other.dim and self.vertices == other.vertices)

    def __hash__(self) -> int:
        return hash((self.dim, self.vertices))

    def __repr__(self) -> str:
        return f"LatticePolytope({list(self.vertices)})"


def strict_support_direction(polytope: LatticePolytope, vertex: IntVec,
                             dominated: Sequence[IntVec] = ()) -> IntVec | None:
    """Integer u with <u, vertex> strictly above every other vertex and
    weakly above every dominated point, or None if no such u exists.

    The candidate is the primitive sum of the outer normals of the facets
    through the vertex of H, the hull of the vertices and the dominated
    points.  It lies in the relative interior of the normal cone of the
    smallest face F of H holding the vertex, so it selects exactly F and
    keeps H below the vertex; a certificate exists exactly when F holds no
    other vertex, which the last check tests.  With no facet through the
    vertex (it is interior to H in H's affine hull), the candidate is the
    normal of H's own facet in the pyramid over H with apex vertex - e_j,
    j the first column that is not a pivot; with no such column H is
    full-dimensional and nothing selects the vertex alone.  No LP runs.
    """
    vertex = tuple(int(c) for c in vertex)
    if vertex not in polytope.vertices:
        raise ValueError(f"{vertex} is not a vertex")
    extra = {tuple(int(c) for c in p) for p in dominated}.difference(polytope.vertices)
    hull = (_integer_hull(sorted(extra.union(polytope.vertices))) if extra
            else polytope._hull_data())
    if not any(_dot(w, vertex) == level for w, level in hull.facets):
        j = next((j for j in range(polytope.dim) if j not in hull.cols), None)
        if j is None:
            return None
        apex = vertex[:j] + (vertex[j] - 1,) + vertex[j + 1:]
        hull = _integer_hull(sorted(hull.vertices + (apex,)))
    u = primitive([sum(c) for c in zip(*(w for w, level in hull.facets
                                         if _dot(w, vertex) == level))])
    top = _dot(u, vertex)
    if all(_dot(u, w) < top for w in polytope.vertices if w != vertex):
        return u
    return None
