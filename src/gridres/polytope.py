"""Lattice polytopes with exact integer hulls.

Each polytope computes its hull once, on exact ints.  The hull finds the
affine dimension k of the generating points and projects them onto k
coordinates that are injective on their affine hull (convexity is
preserved).  It then runs the 1-D extremes, the 2-D monotone chain, or a
3-D beneath-beyond hull.  The vertices, the facets as (primitive outer
normal, level) pairs, point membership, strict supporting directions
(the sum of the outer normals of the facets through a vertex) and one
direction per maximal face are all read from it.  An exact phase-one simplex
over Fractions is the fallback: it handles affine dimension four and up,
and support directions that must also dominate points the normal-cone
sum does not.  It is also the oracle
the hull is tested against.  Facet enumeration is implemented for ambient
dimension up to three.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

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


def point_in_hull(point: Sequence[int], generators: Sequence[IntVec]) -> bool:
    """Exact membership of a point in the convex hull of integer vectors."""
    gens = list(generators)
    if not gens:
        return False
    dim = len(point)
    rows = [[Fraction(g[d]) for g in gens] for d in range(dim)]
    rows.append([Fraction(1)] * len(gens))
    rhs = [Fraction(c) for c in point] + [Fraction(1)]
    return solve_nonnegative(rows, rhs) is not None


def primitive(vec: Sequence[int]) -> IntVec:
    """Divide out the gcd; zero vectors are rejected."""
    g = 0
    for c in vec:
        g = gcd(g, abs(int(c)))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(int(c) // g for c in vec)


def _cross3(u, v) -> IntVec:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


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
    level for all of them; facets is None for affine dimension >= 4.
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


def _integer_hull(pts: list) -> _Hull:
    """Hull of distinct integer points (at least one, sorted)."""
    base = pts[0]
    rows, cols = [], []
    for p in pts[1:]:
        d = _reduce(_sub(p, base), rows, cols)
        if d is not None:
            rows.append(primitive(d))
            cols.append(next(i for i, c in enumerate(d) if c))
            if len(rows) == len(base):
                break
    k = len(rows)
    if k >= 4:
        verts = tuple(p for i, p in enumerate(pts)
                      if not point_in_hull(p, pts[:i] + pts[i + 1:]))
        return _Hull(verts, None, base, rows, cols)
    lifted = {tuple(p[c] for c in cols): p for p in pts}
    flat = sorted(lifted)
    if k == 0:
        verts, facets = flat, []
    elif k == 1:
        verts = [flat[0], flat[-1]]
        facets = [((-1,), -flat[0][0]), ((1,), flat[-1][0])]
    elif k == 2:
        verts = _ccw_hull(flat)
        facets = []
        for a, b in zip(verts, verts[1:] + verts[:1]):
            w = primitive((b[1] - a[1], a[0] - b[0]))
            facets.append((w, _dot(w, a)))
    else:
        verts, facets = _hull_3d(flat)
    n = len(base)

    def lift(w):
        out = [0] * n
        for c, x in zip(cols, w):
            out[c] = x
        return tuple(out)

    return _Hull(tuple(sorted(lifted[v] for v in verts)),
                 tuple(sorted((lift(w), level) for w, level in facets)),
                 base, rows, cols)


def _hull_3d(pts: list) -> tuple[list, list]:
    """Beneath-beyond hull of distinct 3-D integer points spanning space.

    Faces are triangles (p, q, r), counterclockwise seen from outside, with
    integer outer normal (q - p) x (r - p).  A point sees a face when it
    lies strictly above it; visible faces are replaced by a cone from the
    point over their horizon.  Coplanar triangles are merged into facets
    by primitive normal.  A face vertex is a polytope vertex exactly when
    the normals of its facets have rank 3, that is, when at least three
    facets meet there: a point inside an edge lies on two, a point inside
    a facet on one.
    """
    a, b = pts[0], pts[1]
    c = next(p for p in pts if any(_cross3(_sub(b, a), _sub(p, a))))
    d = next(p for p in pts if _dot(_cross3(_sub(b, a), _sub(c, a)), _sub(p, a)))
    # edges maps a directed edge to the face that last held it, which is the
    # current face for every edge of a current face
    faces, edges = {}, {}

    def add(p, q, r):
        w = _cross3(_sub(q, p), _sub(r, p))
        faces[p, q, r] = (w, _dot(w, p))
        edges[p, q] = edges[q, r] = edges[r, p] = (p, q, r)

    for p, q, r, inner in ((a, b, c, d), (a, b, d, c), (a, c, d, b), (b, c, d, a)):
        if _dot(_cross3(_sub(q, p), _sub(r, p)), _sub(inner, p)) > 0:
            q, r = r, q
        add(p, q, r)
    for x in pts:
        visible = {f for f, (w, level) in faces.items() if _dot(w, x) > level}
        if not visible:
            continue
        horizon = [(p, q) for f in visible
                   for p, q in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0]))
                   if edges[q, p] not in visible]
        for f in visible:
            del faces[f]
        for p, q in horizon:
            add(p, q, x)
    facets, normals = {}, {}
    for (p, q, r), (w, _) in faces.items():
        u = primitive(w)
        facets[u] = _dot(u, p)
        for v in (p, q, r):
            normals.setdefault(v, set()).add(u)
    verts = [v for v, ns in normals.items() if len(ns) >= 3]
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
    def from_points(cls, points: Iterable[IntVec]) -> "LatticePolytope":
        pts = sorted(set(tuple(int(c) for c in p) for p in points))
        if not pts:
            raise ValueError("polytope needs at least one point")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise ValueError("mixed dimensions in point set")
        hull = _integer_hull(pts)
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
        if hull.facets is None:
            return point_in_hull(point, self.vertices)
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


def _ccw_hull(points: Sequence[IntVec]) -> list[IntVec]:
    """Monotone-chain hull in counterclockwise order, collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return list(pts)
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def strict_support_direction(polytope: LatticePolytope, vertex: IntVec,
                             dominated: Sequence[IntVec] = ()) -> IntVec | None:
    """Integer u with <u, vertex> strictly above every other vertex and
    weakly above every dominated point, or None if no such u exists.

    The first candidate is the primitive sum of the outer normals of the
    facets through the vertex, which lies inside its normal cone; an exact
    LP decides when that sum misses a dominated point, when the polytope
    is a single vertex, and for affine dimension four and up.
    """
    vertex = tuple(int(c) for c in vertex)
    if vertex not in polytope.vertices:
        raise ValueError(f"{vertex} is not a vertex")
    n = polytope.dim
    weak = [tuple(v - y for v, y in zip(vertex, p)) for p in dominated]
    facets = polytope._hull_data().facets
    if facets is not None and len(polytope.vertices) > 1:
        total = [0] * n
        for w, level in facets:
            if _dot(w, vertex) == level:
                total = [a + b for a, b in zip(total, w)]
        u = primitive(total)
        if all(_dot(u, d) >= 0 for d in weak):
            return u
    strict = [tuple(v - x for v, x in zip(vertex, other))
              for other in polytope.vertices if other != vertex]
    if strict:
        return _direction_lp(n, strict, weak)
    # single-vertex polytope: any nonzero member of the weak cone works
    for axis in range(n):
        for sign in (1, -1):
            unit = tuple(sign if i == axis else 0 for i in range(n))
            u = _direction_lp(n, [unit], weak)
            if u is not None:
                return u
    return None


def _direction_lp(n: int, strict: list[IntVec], weak: list[IntVec]) -> IntVec | None:
    """Find integer u with <u, d> >= 1 on strict and >= 0 on weak rows."""
    rows, rhs = [], []
    m = len(strict) + len(weak)
    slack = 0
    for d in strict:
        row = [Fraction(c) for c in d] + [Fraction(-c) for c in d]
        row += [Fraction(-1 if j == slack else 0) for j in range(m)]
        rows.append(row)
        rhs.append(Fraction(1))
        slack += 1
    for d in weak:
        row = [Fraction(c) for c in d] + [Fraction(-c) for c in d]
        row += [Fraction(-1 if j == slack else 0) for j in range(m)]
        rows.append(row)
        rhs.append(Fraction(0))
        slack += 1
    x = solve_nonnegative(rows, rhs)
    if x is None:
        return None
    u = [x[i] - x[n + i] for i in range(n)]
    if not any(u):
        return None
    lcm = 1
    for c in u:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    return primitive(tuple(int(c * lcm) for c in u))
