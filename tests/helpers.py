"""Seeded random generators and slow oracles shared across the test modules."""

import re
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, prod
from random import Random

from gridres import (BudgetExceededError, CounterexampleError, Field, LineConfiguration,
                     MultiPoly, NormalizationReport, ProjLine, ProjPoint, concurrency_point,
                     line_through, validate_green_cover, vanishing_poly_from_nodes)
from gridres.cover import _singleton_line
from gridres.expr import MAX_DEPTH, MAX_PAIRS, MAX_POWER_BITS, MAX_POWER_TERMS, ParseError
from gridres.field import FieldMismatchError
from gridres.lines import grid_intersections
from gridres.multipoly import MAX_EXPONENT, MIN_EXPONENT, _mul_terms, _pow_terms
from gridres.polytope import _cross3, _dot, primitive, solve_nonnegative
from gridres.projective import infinity_line, pencil


def random_element(rng: Random, field: Field, nonzero: bool = False):
    while True:
        if field.is_prime_field:
            v = field(rng.randrange(field.modulus))
        else:
            v = field(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if not (nonzero and v.is_zero()):
            return v


def random_nodes(rng: Random, field: Field, count: int, avoid_zero: bool = False):
    """count pairwise-distinct field elements."""
    pool: set = set()
    while len(pool) < count:
        pool.add(random_element(rng, field, nonzero=avoid_zero))
    return sorted(pool)


def random_poly(rng: Random, field: Field, nvars: int, max_exp: int,
                max_terms: int) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        terms[mono] = random_element(rng, field)
    return MultiPoly.from_terms(field, nvars, terms)


def random_relaxed_poly(rng: Random, field: Field, target) -> MultiPoly:
    """Random polynomial meeting the relaxed support condition for target.

    Mixes monomials inside the target box with spiked monomials that
    exceed the target in some coordinates while dropping below it in a
    chosen one, so the classical degree bound is regularly violated.
    """
    target = tuple(target)
    n = len(target)
    terms = {}
    droppable = [i for i in range(n) if target[i] >= 1]
    for _ in range(rng.randint(1, 8)):
        if droppable and rng.random() < 0.4:
            j = rng.choice(droppable)
            mono = tuple(
                rng.randint(0, target[i] - 1) if i == j else rng.randint(0, target[i] + 2)
                for i in range(n))
        else:
            mono = tuple(rng.randint(0, c) for c in target)
        terms[mono] = random_element(rng, field)
    if rng.random() < 0.5:
        terms[target] = random_element(rng, field)
    return MultiPoly.from_terms(field, nvars=n, terms=terms)


def random_bounded_poly(rng: Random, field: Field, nvars: int,
                        degree_bound: int, max_terms: int = 8) -> MultiPoly:
    """Random polynomial of total degree at most degree_bound (>= 0)."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            mono = tuple(rng.randint(0, degree_bound) for _ in range(nvars))
            if sum(mono) <= degree_bound:
                break
        terms[mono] = random_element(rng, field)
    return MultiPoly.from_terms(field, nvars, terms)


def random_laurent_poly(rng: Random, field: Field, nvars: int, max_terms: int = 6) -> MultiPoly:
    """Random Laurent polynomial with exponents in [-3, 7] (7 = p over F_7,
    so derivatives there drop terms)."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.choice((-3, -1, 0, 0, 1, 2, 7)) for _ in range(nvars))
        terms[mono] = random_element(rng, field)
    return MultiPoly.from_terms(field, nvars, terms)


def assert_raw_canonical(f: MultiPoly):
    """Stored terms: int exponent tuples of the right arity mapped to ints
    in (0, p) over F_p, or to nonzero Fractions over Q."""
    p = f.field.modulus
    for m, c in f.terms.items():
        assert type(m) is tuple and len(m) == f.nvars, m
        assert all(type(e) is int for e in m), m
        if p:
            assert type(c) is int and 0 < c < p, (m, c)
        else:
            assert type(c) is Fraction and c != 0, (m, c)


# Oracles for the raw ring kernels of gridres.multipoly: term maps
# {exponent: FieldElement}, built term by term in field elements.

def element_terms(f: MultiPoly) -> dict:
    """f's terms as field elements."""
    return {m: f.field(c) for m, c in f.terms.items()}


def _accumulate(out: dict, m, c):
    s = out.get(m)
    s = c if s is None else s + c
    if s.is_zero():
        out.pop(m, None)
    else:
        out[m] = s


def oracle_sum(a: dict, b: dict, negate_b: bool = False) -> dict:
    out = dict(a)
    for m, c in b.items():
        _accumulate(out, m, -c if negate_b else c)
    return out


def oracle_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            _accumulate(out, tuple(x + y for x, y in zip(m1, m2)), c1 * c2)
    return out


def oracle_power(a: dict, e: int, field: Field, nvars: int) -> dict:
    """a^e by e-fold multiplication; e < 0 for a single term only."""
    if e < 0:
        (m, c), = a.items()
        return {tuple(x * e for x in m): c.inv() ** (-e)}
    out = {(0,) * nvars: field.one}
    for _ in range(e):
        out = oracle_product(out, a)
    return out


def oracle_derivative(a: dict, index: int) -> dict:
    out: dict = {}
    for m, c in a.items():
        coeff = c * m[index]
        if not coeff.is_zero():
            _accumulate(out, m[:index] + (m[index] - 1,) + m[index + 1:], coeff)
    return out


def oracle_shift(a: dict, offset) -> dict:
    return {tuple(x + y for x, y in zip(m, offset)): c for m, c in a.items()}


def oracle_evaluate(a: dict, field: Field, point):
    total = field.zero
    for m, c in a.items():
        v = c
        for x, e in zip(point, m):
            if e < 0 and x.is_zero():
                raise ZeroDivisionError("zero coordinate raised to a negative power")
            v = v * x ** e
        total = total + v
    return total


def pointwise_grid_sum(f: MultiPoly, nodes):
    """Oracle: sum over the grid of f(x) * prod_i 1/phi_i'(x_i).

    Evaluates f term by term and each phi_i' (the derivative of the
    vanishing polynomial of A_i) at every grid point in field elements,
    with no per-axis factorization; grid_weights is not used.  A Laurent
    f needs nodes without 0.
    """
    derivs = [vanishing_poly_from_nodes(ns).partial_derivative(0) for ns in nodes]
    terms = element_terms(f)
    total = f.field.zero
    for x in product(*nodes):
        w = f.field.one
        for g, xi in zip(derivs, x):
            w = w * g.evaluate((xi,)).inv()
        total = total + oracle_evaluate(terms, f.field, x) * w
    return total


def pointwise_alpha(nodes) -> dict:
    """Oracle: {grid point x: alpha_x = prod_i 1/phi_i'(x_i)}.

    phi_i' is the derivative of the vanishing polynomial of A_i, evaluated
    at each node; grid_weights is not used.
    """
    derivs = [vanishing_poly_from_nodes(ns).partial_derivative(0) for ns in nodes]
    out = {}
    for x in product(*nodes):
        d = x[0].field.one
        for g, xi in zip(derivs, x):
            d = d * g.evaluate((xi,))
        out[x] = d.inv()
    return out


# Oracles for the integer grid kernels of gridres.nullstellensatz and
# gridres.cayley_bacharach: the same one-axis-at-a-time collapse, run on
# raw Fractions over Q (ints mod p over F_p), one Fraction operation per
# term, with the weights 1/phi'(a) taken from the products of differences
# directly.

def fraction_weights(values, p) -> dict:
    """Raw map node value -> 1/prod_{b != a}(a - b)."""
    derivs = [prod(a - b for b in values if b != a) for a in values]
    return {a: pow(d, -1, p) if p else 1 / Fraction(d) for a, d in zip(values, derivs)}


def fraction_collapse(terms: dict, table: dict, p) -> dict:
    """The first variable of a raw term map summed against a raw table."""
    out: dict = {}
    for m, c in terms.items():
        t = table.get(m[0])
        if t:
            rest = m[1:]
            out[rest] = out.get(rest, 0) + c * t
    if p:
        return {m: r for m, c in out.items() if (r := c % p)}
    return {m: c for m, c in out.items() if c}


def fraction_grid_sum(f: MultiPoly, nodes):
    """Oracle: sum over the grid of f(x) * prod_i 1/phi_i'(x_i), one axis
    at a time, against the tables S_i(e) = sum_a a^e / phi_i'(a)."""
    field, terms = f.field, f.terms
    p = field.modulus
    for ns in nodes:
        weights = fraction_weights([a.value for a in ns], p)
        exps = {m[0] for m in terms}
        sums = fraction_collapse({(a, e): pow(a, e, p) for a in weights for e in exps},
                                 weights, p)
        terms = fraction_collapse(terms, {e: s for (e,), s in sums.items()}, p)
    return field(terms.get((), 0))


def fraction_forced_value(values: dict, grid, target):
    """Oracle: -(sum over x != t of alpha_x v_x) / alpha_t, the values keyed
    by node indices and contracted one axis at a time against the weights
    indexed by node; every grid point but target is given exactly once."""
    field = grid.field
    p = field.modulus
    index = [{a: j for j, a in enumerate(ns)} for ns in grid.nodes]

    def key(pt):
        return tuple(ix[field(x)] for ix, x in zip(index, pt))
    tables = [dict(enumerate(fraction_weights([a.value for a in ns], p).values()))
              for ns in grid.nodes]

    def contract(vals):
        for t in tables:
            vals = fraction_collapse(vals, t, p)
        return field(vals.get((), 0))
    given = {key(pt): field(v).value for pt, v in values.items()}
    return -contract(given) * contract({key(target): 1}).inv()


def fraction_witness(f: MultiPoly, grid):
    """Oracle: the row-major walk on f's raw terms, restricting f to each
    node of the next axis in turn and skipping the slab behind a node
    where the restriction is zero; None when f vanishes on the grid."""
    p = f.field.modulus

    def walk(terms, point):
        if len(point) == grid.nvars:
            return tuple(point)
        exps = {m[0] for m in terms}
        for a in grid.nodes[len(point)]:
            rest = fraction_collapse(terms, {e: pow(a.value, e, p) for e in exps}, p)
            if rest and (found := walk(rest, point + [a])):
                return found
        return None
    return walk(f.terms, []) if f.terms else None


def facet_normals_by_enumeration(vertices):
    """Oracle: primitive outer facet normals of a full-dimensional polytope
    in dimension 2 or 3, from every pair (2-D) or triple (3-D) of vertices
    whose hyperplane has all vertices on one side.  O(V^4) in 3-D.
    """
    dim = len(vertices[0])
    normals = set()
    for combo in combinations(vertices, dim):
        a = combo[0]
        d = [tuple(x - y for x, y in zip(v, a)) for v in combo[1:]]
        if dim == 2:
            w = (d[0][1], -d[0][0])
        else:
            u, v = d
            w = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                 u[0] * v[1] - u[1] * v[0])
        if not any(w):
            continue
        g = 0
        for c in w:
            g = gcd(g, c)
        w = tuple(c // g for c in w)
        values = [sum(x * y for x, y in zip(w, v)) for v in vertices]
        level = sum(x * y for x, y in zip(w, a))
        if max(values) == level:
            normals.add(w)
        if min(values) == level:
            normals.add(tuple(-c for c in w))
    return sorted(normals)


def point_in_hull(point, generators) -> bool:
    """Oracle: exact membership of a point in the convex hull of integer
    vectors, by one phase-one LP over convex weights."""
    gens = list(generators)
    if not gens:
        return False
    rows = [[g[d] for g in gens] for d in range(len(point))] + [[1] * len(gens)]
    return solve_nonnegative(rows, list(point) + [1]) is not None


def ccw_hull(points) -> list:
    """Oracle: monotone-chain hull of 2-D points in counterclockwise order,
    collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

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


def direction_lp(strict, weak):
    """Oracle: a rational u with <u, d> >= 1 on the strict rows and >= 0 on
    the weak rows, or None; one LP over u = u+ - u- with a surplus per row."""
    n = len((strict + weak)[0])
    m = len(strict) + len(weak)
    rows = [list(d) + [-c for c in d] + [-(j == i) for j in range(m)]
            for i, d in enumerate(strict + weak)]
    x = solve_nonnegative(rows, [1] * len(strict) + [0] * len(weak))
    return None if x is None else [x[i] - x[n + i] for i in range(n)]


def affine_dimension(points) -> int:
    """Oracle: the rank of the differences to the first point, by Gaussian
    elimination over Fractions."""
    rows = [[Fraction(a - b) for a, b in zip(p, points[0])] for p in points[1:]]
    rank = 0
    for col in range(len(points[0])):
        pivot = next((r for r in rows[rank:] if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [r if not r[col] else [a - r[col] / pivot[col] * b for a, b in zip(r, pivot)]
                for r in rows]
        rows.insert(rank, pivot)
        rank += 1
    return rank


def support_direction_exists(vertices, vertex, dominated=()) -> bool:
    """Oracle for strict_support_direction: whether some u puts vertex
    strictly above the other vertices and weakly above the dominated
    points.  A single vertex asks u to be nonzero, through a strict row
    +-e_i on some axis."""
    weak = [tuple(v - y for v, y in zip(vertex, p)) for p in dominated]
    strict = [tuple(v - w for v, w in zip(vertex, other))
              for other in vertices if other != vertex]
    if strict:
        return direction_lp(strict, weak) is not None
    n = len(vertex)
    return any(direction_lp([tuple(s * (i == j) for j in range(n))], weak) is not None
               for i in range(n) for s in (1, -1))


# Oracles for the raw projective kernels of gridres.projective: triples of
# field elements, crossed and scaled in field elements.

def element_cross(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def element_canonical(field: Field, vec) -> tuple:
    """vec as field elements, scaled so its first nonzero entry is one."""
    vec = tuple(field(c) for c in vec)
    inv = next(c for c in vec if not c.is_zero()).inv()
    return tuple(c * inv for c in vec)


def element_coords(x) -> tuple:
    """A point's or line's stored coordinates as field elements."""
    return tuple(x.field(c) for c in x.coords)


def element_contains(line, point) -> bool:
    dot = line.field.zero
    for a, b in zip(element_coords(line), element_coords(point)):
        dot = dot + a * b
    return dot.is_zero()


def assert_raw_triple(x):
    """Stored coords: three ints in [0, p) over F_p, or three Fractions
    over Q, the first nonzero one equal to 1."""
    p = x.field.modulus
    assert type(x.coords) is tuple and len(x.coords) == 3, x.coords
    for c in x.coords:
        if p:
            assert type(c) is int and 0 <= c < p, x.coords
        else:
            assert type(c) is Fraction, x.coords
    assert next(c for c in x.coords if c) == 1, x.coords


def all_points(field: Field):
    """Every projective point over F_p in canonical order."""
    for x in field.elements():
        for y in field.elements():
            yield ProjPoint._raw(field, (x.value, y.value, 1))
    for y in field.elements():
        yield ProjPoint._raw(field, (1, y.value, 0))
    yield ProjPoint._raw(field, (0, 1, 0))


def affine_candidate_points(field: Field, avoid):
    """Deterministic stream of points outside the given finite set.

    Over a prime field this walks all points; over the rationals it walks
    an ever-growing integer grid, so it terminates for any finite avoid set.
    """
    avoid = set(avoid)
    if field.is_prime_field:
        for p in all_points(field):
            if p not in avoid:
                yield p
        return
    bound = 0
    while True:
        for x in range(bound + 1):
            for y in range(bound + 1):
                if max(x, y) == bound:
                    p = ProjPoint.affine(field, x, y)
                    if p not in avoid:
                        yield p
        bound += 1


def product_form(lines) -> MultiPoly:
    """Oracle: the product of the canonical linear forms of the lines,
    expanded as a homogeneous MultiPoly in (x, y, z)."""
    lines = list(lines)
    if not lines:
        raise ValueError("empty line family")
    field = lines[0].field
    out = MultiPoly.constant(field, 3, 1)
    for line in lines:
        form = {m: c for m, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), line.coords) if c}
        out = out * MultiPoly(field, 3, form)
    return out


def _det3(u, v, w):
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def collinear(p, q, r) -> bool:
    """Whether three projective points lie on one line (their determinant
    vanishes)."""
    return _det3(*map(element_coords, (p, q, r))).is_zero()


def traces_by_incidence_scan(points):
    """Oracle: for each line through two of the points, the frozenset of
    the indices of all points on it, found by testing every point against
    every pair not on a line found before.  Returns the set of distinct
    traces."""
    coords = [element_coords(p) for p in points]
    traces, joined = set(), set()
    for i, j in combinations(range(len(points)), 2):
        if (i, j) not in joined:
            (p0, p1, p2), (q0, q1, q2) = coords[i], coords[j]
            # r is collinear with p and q iff det(r, p, q) = r . (p x q) vanishes
            a, b, c = p1 * q2 - p2 * q1, p2 * q0 - p0 * q2, p0 * q1 - p1 * q0
            trace = frozenset(k for k, (r0, r1, r2) in enumerate(coords)
                              if (a * r0 + b * r1 + c * r2).is_zero())
            traces.add(trace)
            joined.update(combinations(sorted(trace), 2))
    return traces


def assert_cover(points, excluded, lines, size):
    """The lines are `size` many, cover every point and avoid excluded."""
    assert len(lines) == size
    for line in lines:
        assert not element_contains(line, excluded), (line, excluded)
    for p in points:
        assert any(element_contains(line, p) for line in lines), p


def oracle_candidates(points, excluded, field):
    """Oracle: the full candidate family, trace -> line, by incidence scan.
    A trace of two or more points qualifies unless its line passes through
    excluded or is the infinity line; every point also gets the singleton
    line `cover._singleton_line` picks, dominated or not."""
    out = {frozenset([i]): _singleton_line(field, p, excluded) for i, p in enumerate(points)}
    for trace in traces_by_incidence_scan(points):
        i, j = sorted(trace)[:2]
        on_infinity = all(not points[k].coords[2] for k in trace)
        if not on_infinity and not collinear(points[i], points[j], excluded):
            out[trace] = line_through(points[i], points[j])
    return out


def oracle_min_line_cover(points, excluded, field, budget=None):
    """Oracle: the frozenset cover search whose only bound is
    ceil(|uncovered| / largest trace), on the full candidate family of
    `oracle_candidates` with no dominance, branching on the point with the
    fewest candidates, then the lowest index, as `cover.min_line_cover`
    does."""
    points = list(points)
    if len(set(points)) != len(points):
        raise ValueError("cover points must be distinct")
    if excluded in points:
        raise ValueError(f"excluded point {excluded} is among the points to cover")
    if not points:
        return 0, ()
    traces = oracle_candidates(points, excluded, field)
    # deterministic candidate order: big traces first, then by point indices
    order = sorted(traces, key=lambda t: (-len(t), sorted(t)))
    containing = {i: [t for t in order if i in t] for i in range(len(points))}
    by_rank = sorted(containing, key=lambda i: (len(containing[i]), i))
    max_trace = max(len(t) for t in order)
    all_idx = frozenset(range(len(points)))

    best_size = len(points) + 1
    best_cover: tuple = ()
    nodes = 0

    def search(uncovered: frozenset, chosen: list):
        nonlocal best_size, best_cover, nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(budget)
        if not uncovered:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_cover = tuple(chosen)
            return
        # lower bound: each remaining line covers at most max_trace points
        if len(chosen) + (len(uncovered) + max_trace - 1) // max_trace >= best_size:
            return
        pick = next(i for i in by_rank if i in uncovered)
        for t in containing[pick]:
            search(uncovered - t, chosen + [t])

    search(all_idx, [])
    return best_size, tuple(traces[t] for t in best_cover)


def oracle_green_covers(red, blue, field, budget=None):
    """Oracle: the frozenset exact-cover search for green families, with the
    candidates and pick rule of `lines.search_green_covers` (fewest live
    candidates, then lowest index); returns the sorted covers.  For n >= 2
    the candidates come from the incidence scan, each line joined from the
    first two points of its trace."""
    red, blue = list(red), list(blue)
    for line in red + blue:
        if line.field != field:
            raise FieldMismatchError(f"line {line} is over {line.field}, not {field}")
    n = len(red)
    if len(blue) != n:
        raise ValueError("need equally many red and blue lines")
    points = grid_intersections(red, blue)
    if n == 1:
        if not field.is_prime_field:
            raise ValueError("a one-point grid has infinitely many cover lines over Q")
        traces = {line: frozenset([0]) for line in pencil(points[0])}
    else:
        traces = {}
        for trace in traces_by_incidence_scan(points):
            i, j = sorted(trace)[:2]
            traces[line_through(points[i], points[j])] = trace
    forbidden = set(red) | set(blue) | {infinity_line(field)}
    candidates = sorted(((line, trace) for line, trace in traces.items()
                         if len(trace) == n and line not in forbidden),
                        key=lambda c: c[0])
    containing = {i: [c for c in candidates if i in c[1]] for i in range(len(points))}

    solutions: list = []
    nodes = 0

    def search(uncovered: frozenset, chosen: tuple):
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(budget)
        if not uncovered:
            solutions.append(chosen)
            return
        pick = min(uncovered,
                   key=lambda i: (sum(1 for _, t in containing[i] if t <= uncovered), i))
        for line, trace in containing[pick]:
            if trace <= uncovered:
                search(uncovered - trace, chosen + (line,))

    search(frozenset(range(len(points))), ())
    return sorted(tuple(sorted(sol)) for sol in solutions)


def _sign_normalized(vec):
    """Primitive representative whose first nonzero coordinate is positive."""
    v = primitive(vec)
    return v if next(c for c in v if c) > 0 else tuple(-c for c in v)


def unfolded_candidates(system) -> list:
    """Oracle directions for the unfolded test: a finite set meeting every
    cone of the refined normal fans, built without the sum's face lattice.

    A direction on which every polytope's face is at least one-dimensional
    lies on a wall of every fan; walls live in hyperplanes orthogonal to
    vertex-difference vectors, so the candidates below cover all of them
    (dimension 2), respectively all wall intersections, wall-cone boundary
    rays, and in-wall bases (dimension 3).  Both signs of each are taken.
    """
    n = system.nvars
    polytopes = list(system.polytopes) + [system.sum_polytope]
    diffs = sorted({_sign_normalized([a - b for a, b in zip(v, w)])
                    for p in polytopes for v, w in combinations(p.vertices, 2)})
    reps: set = set()
    if n == 2:
        reps.update(_sign_normalized((d[1], -d[0])) for d in diffs)
    else:
        for p in polytopes:
            ad = p.affine_dim()
            if ad == 3:
                reps.update(_sign_normalized(w) for w in p.facet_normals())
            elif ad == 2:
                base, *rest = p.vertices
                edges = [[a - b for a, b in zip(v, base)] for v in rest]
                reps.add(next(_sign_normalized(w) for d, e in combinations(edges, 2)
                              if any(w := _cross3(d, e))))
        for d, e in combinations(diffs, 2):
            w = _cross3(d, e)
            if any(w):
                reps.add(_sign_normalized(w))
        axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        for d in diffs:
            first = next(w for w in (_cross3(d, a) for a in axes) if any(w))
            reps.add(_sign_normalized(first))
            second = _cross3(d, first)
            if any(second):
                reps.add(_sign_normalized(second))
    ordered = sorted(reps)
    return ordered + [tuple(-c for c in u) for u in ordered]


def has_single_top_vertex(support, u) -> bool:
    """Whether exactly one point of the support maximizes <u, .>."""
    levels = [sum(a * b for a, b in zip(u, m)) for m in support]
    return levels.count(max(levels)) == 1


def unfolded_by_candidates(system):
    """Oracle for is_unfolded: (True, None) or (False, first failing
    candidate direction); every system in one variable is unfolded."""
    if system.nvars == 1:
        return True, None
    for u in unfolded_candidates(system):
        if not any(has_single_top_vertex(p.vertices, u) for p in system.polytopes):
            return False, u
    return True, None


def oracle_vertex_residue(system, f: MultiPoly, vertex, direction):
    """Oracle: the vertex residue of f/(g_1...g_n) from an expansion of its
    own, truncated at f's own bound, built term by term in field elements.

    Writes g_i = c_i z^{v_i} (1 + h_i) with v_i the top of g_i's support
    in the direction, expands each (1 + h_i)^{-1} to the bound
    T = max <u, m> over the support of f * z^{(1,...,1) - v}, and reads
    the constant term of the product with f * z^{(1,...,1) - v}.
    """
    field = system.field
    u = tuple(direction)

    def weight(m):
        return sum(a * b for a, b in zip(u, m))

    shifted = oracle_shift(element_terms(f), tuple(1 - c for c in vertex))
    bound = max(weight(m) for m in shifted)
    if bound < 0:
        return field.zero

    def truncated(a):
        return {m: c for m, c in a.items() if weight(m) >= -bound}

    unit = {(0,) * system.nvars: field.one}
    expansion, lead = unit, field.one
    for g in system.polys:
        terms = element_terms(g)
        v_i = max(terms, key=weight)
        assert [weight(m) for m in terms].count(weight(v_i)) == 1, (g, u)
        c_i = terms[v_i]
        lead = lead * c_i
        neg_h = {tuple(x - y for x, y in zip(m, v_i)): -c / c_i
                 for m, c in terms.items() if m != v_i}
        series = power = unit
        for _ in range(bound):
            power = truncated(oracle_product(power, neg_h))
            series = oracle_sum(series, power)
        expansion = truncated(oracle_product(expansion, series))
    assert tuple(map(sum, zip(*(max(g.terms, key=weight) for g in system.polys)))) == tuple(vertex)
    constant = field.zero
    for m, c in expansion.items():
        other = shifted.get(tuple(-x for x in m))
        if other is not None:
            constant = constant + c * other
    return constant / lead


def _oracle_is_subgroup(field: Field, elements) -> bool:
    values = set(elements)
    if field.zero in values or field.one not in values:
        return False
    return all(a * b in values for a in values for b in values)


def invalid_cover_message(config: LineConfiguration, diagnostics: dict) -> str:
    """The one-line error for a configuration `validate_green_cover`
    refuses: the counts of uncovered grid points and identity violations,
    the first uncovered point, and the family sizes when they differ."""
    uncovered = diagnostics["uncovered"]
    text = f"not a valid green cover: {len(uncovered)} uncovered grid points"
    if uncovered:
        text += f", first {uncovered[0]}"
    text += f"; {len(diagnostics['identity_violations'])} identity violations"
    sizes = [len(config.red), len(config.blue), len(config.green)]
    if min(sizes) != max(sizes):
        text += f"; family sizes {sizes[0]} red, {sizes[1]} blue, {sizes[2]} green"
    return text


def oracle_normalize_biconcurrent(config: LineConfiguration):
    """Oracle: `lines.normalize_biconcurrent` with its normalization done in
    field elements, each transported coordinate coerced and divided out
    (the same checks, messages and check order)."""
    field = config.field
    n = config.n
    if n < 2:
        raise ValueError("normalization needs at least two lines per family")
    if not (len(config.blue) == len(config.green) == n):
        raise ValueError("normalization needs equally sized families")
    char = field.characteristic()
    if char and gcd(n, char) != 1:
        raise ValueError(f"family size {n} shares a factor with the characteristic {char}")
    ok, diagnostics = validate_green_cover(config)
    if not ok:
        raise ValueError(invalid_cover_message(config, diagnostics))
    p_red = concurrency_point(config.red)
    if p_red is None:
        raise ValueError("red lines are not concurrent")
    p_green = concurrency_point(config.green)
    if p_green is None:
        raise ValueError("green lines are not concurrent")
    p_blue = concurrency_point(config.blue)
    if p_blue is None:
        raise ValueError("blue lines are not concurrent "
                         "(required to reach the axis-pencil normal form)")
    if p_red == p_blue:
        raise ValueError("red and blue pencils share their center")

    anchor_line = line_through(p_red, p_blue)
    third = next(q for q in affine_candidate_points(field, ())
                 if not anchor_line.contains(q))
    basis = (p_blue.coords, p_red.coords, third.coords)
    # S has the three points as columns; the point map is S^{-1}, under
    # which a line with row vector l transports to l.S
    red_t, blue_t, green_t = ([ProjLine(field, [_dot(l.coords, b) for b in basis])
                               for l in family]
                              for family in (config.red, config.blue, config.green))

    u_raw = []
    for line in red_t:
        a, b, c = map(field, line.coords)
        if not b.is_zero() or a.is_zero():
            raise CounterexampleError(f"red line failed to normalize: {line}")
        u_raw.append(-c / a)
    v_raw = []
    for line in blue_t:
        a, b, c = map(field, line.coords)
        if not a.is_zero() or b.is_zero():
            raise CounterexampleError(f"blue line failed to normalize: {line}")
        v_raw.append(-c / b)
    slopes_raw, intercepts_raw = [], []
    for line in green_t:
        a, b, c = map(field, line.coords)
        if b.is_zero() or a.is_zero():
            raise CounterexampleError(f"green line failed to normalize: {line}")
        slopes_raw.append(-a / b)
        intercepts_raw.append(-c / b)

    n_inv = field(n).inv()
    mean_u = sum(u_raw, field.zero) * n_inv
    mean_v = sum(v_raw, field.zero) * n_inv
    u_centered = [u - mean_u for u in u_raw]
    v_centered = [v - mean_v for v in v_raw]
    # greens y = s x + t become y = s x + (t + s*mean_u - mean_v)
    for s, t in zip(slopes_raw, intercepts_raw):
        shifted = t + s * mean_u - mean_v
        if not shifted.is_zero():
            raise CounterexampleError(
                "green line misses the origin after centering; the cover "
                "bijections force a common intercept")

    u_scale = next(u for u in sorted(u_centered) if not u.is_zero())
    base_slope = sorted(slopes_raw)[0]
    v_scale = base_slope * u_scale
    u_set = sorted(u / u_scale for u in u_centered)
    v_set = sorted(v / v_scale for v in v_centered)
    slopes = sorted(s / base_slope for s in slopes_raw)

    report = NormalizationReport(
        u_set=tuple(u_set), v_set=tuple(v_set), slopes=tuple(slopes),
        is_subgroup=_oracle_is_subgroup(field, u_set),
        v_equals_u=v_set == u_set,
        slopes_equal_u=slopes == u_set)

    normalized = LineConfiguration(
        field,
        red=[ProjLine(field, (1, 0, -u)) for u in u_set],
        blue=[ProjLine(field, (0, 1, -v)) for v in v_set],
        green=[ProjLine(field, (s, -1, 0)) for s in slopes])
    return normalized, report


# -- the reference parser ---------------------------------------------------------

# One token: an ASCII integer, a word or one other character.  So only an
# integer starts with an ASCII digit and only a word with a letter.  \w is
# exactly str.isalnum() or "_", \S exactly not str.isspace(), so a scan
# skips exactly the whitespace between tokens.
_TOKEN = re.compile(r"[0-9]+|\w+|\S")


class ReferenceParser:
    """The grammar of gridres.expr read token by token by recursive descent:
    the reference that expr's factor-pattern reader is compared against.

    ReferenceParser(text, field, names).parse() gives the raw terms (ints
    or Fractions over Q, ints mod p) or raises the error the reader must
    raise, with its type, message and offset.
    """

    def __init__(self, text: str, field: Field, names):
        self.text = text
        self.p = field.modulus  # None over Q: no reduction
        self.index = {name: i for i, name in enumerate(names)}
        self.nvars = len(names)
        self.origin = (0,) * self.nvars
        self.unit = {self.origin: 1}
        self.depth = 0  # open parentheses
        self.tokens = _TOKEN.finditer(text)  # lazy, one token ahead
        self.advance()

    def advance(self):
        """The next token becomes tok ("" at the end), at its offset."""
        m = next(self.tokens, None)
        if m is None:
            self.tok, self.at = "", len(self.text)
        else:
            self.tok = m[0]
            self.at = m.start()

    def take(self, ch: str) -> bool:
        if self.tok == ch:
            self.advance()
            return True
        return False

    def _integer(self) -> int:
        if not "0" <= self.tok[:1] <= "9":
            raise ParseError("expected an integer", self.at)
        value = int(self.tok)
        self.advance()
        return value

    def parse(self) -> dict:
        terms = self.expr()
        if self.tok:
            raise ParseError(f"unexpected {self.tok[0]!r}", self.at)
        return terms

    def expr(self) -> dict:
        # one dict for all terms; reduced, and zeros dropped, once at the end
        terms: dict = {}
        negate = self.take("-")
        while True:
            for m, c in self.term().items():
                if negate:
                    c = -c
                s = terms.get(m)
                terms[m] = c if s is None else s + c
            if self.take("+"):
                negate = False
            elif self.take("-"):
                negate = True
            else:
                return _reduced(terms, self.p)

    def term(self) -> dict:
        """A product: the term dicts of its factors multiplied left to right
        by the raw kernel, the term pairs checked at each '*'."""
        poly = self.factor()
        while self.tok == "*":
            at = self.at
            self.advance()
            f = self.factor()
            if len(poly) * len(f) > MAX_PAIRS:
                raise ParseError(f"product of {len(poly)} by {len(f)} terms is over "
                                 f"{MAX_PAIRS} term pairs", at)
            poly = _mul_terms(poly, f, self.p)
        return poly

    def factor(self) -> dict:
        base = self.base()
        op = self.at
        if self.tok != "^":
            return base
        self.advance()
        # errors point just past a sign, else at the exponent's first digit
        at = self.at + (self.tok == "-")
        sign = -1 if self.take("-") else 1
        e = sign * self._integer()
        if not MIN_EXPONENT <= e <= MAX_EXPONENT:
            raise ParseError(f"exponent {e} overflows 32 bits", at)
        if e < 0 and len(base) != 1:  # 0^-e included: zero has no term to invert
            raise ParseError("negative power of a non-monomial", at)
        t = len(base)
        # comb(e + t - 1, t - 1) >= e + t - 1, so a large e or t is refused before comb runs
        if t > 1 and (e + t - 1 > MAX_POWER_TERMS or comb(e + t - 1, t - 1) > MAX_POWER_TERMS):
            raise ParseError(f"power of a {t}-term sum may expand to over "
                             f"{MAX_POWER_TERMS} terms", op)
        self._check_bits(base.values(), e, op)
        return _pow_terms(base, e, self.p, self.unit)

    def _check_bits(self, coefficients, e: int, op: int):
        """Over Q, refuse a power whose coefficients other than +-1 grow
        past MAX_POWER_BITS."""
        if self.p is None:
            bits = abs(e) * max((max(c.numerator.bit_length(), c.denominator.bit_length())
                                 for c in coefficients if abs(c) != 1), default=0)
            if bits > MAX_POWER_BITS:
                raise ParseError(f"power has a coefficient of about {bits} bits, over "
                                 f"{MAX_POWER_BITS}", op)

    def base(self) -> dict:
        """'(' expr ')', a literal or a variable, as a term dict."""
        tok, at = self.tok, self.at
        if self.take("("):
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", at)
            self.depth += 1
            poly = self.expr()
            if not self.take(")"):
                raise ParseError("expected ')'", self.at)
            self.depth -= 1
            return poly
        p = self.p
        if "0" <= tok[:1] <= "9":
            value = self._integer()
            at = self.at + 1  # a zero denominator points just past the '/'
            if self.take("/"):
                den = self._integer()
                if den == 0:
                    raise ParseError("zero denominator", at)
                if p is None:
                    value = Fraction(value, den)
                elif den % p:
                    value = value * pow(den, -1, p)
                else:
                    raise ZeroDivisionError("inversion of zero field element")
            if p:
                value %= p
            return {self.origin: value} if value else {}
        if tok[:1].isalpha():
            self.advance()
            index = self.index.get(tok)
            if index is None:
                index = _aliased(tok, self.nvars)
            if index is None:
                raise ParseError(f"unknown variable {tok!r}", at)
            m = [0] * self.nvars
            m[index] = 1
            return {tuple(m): 1}
        raise ParseError("expected a variable, literal, or parenthesis", at)


def _reduced(terms: dict, p) -> dict:
    """A sum's terms reduced mod p (p None over Q), zeros dropped."""
    if p:
        return {m: c % p for m, c in terms.items() if c % p}
    return {m: c for m, c in terms.items() if c}


def _aliased(name: str, nvars: int):
    # z1..zn always work; x, y, z address low arities unambiguously
    if name.startswith("z") and name[1:].isascii() and name[1:].isdigit():
        k = int(name[1:])
        if 1 <= k <= nvars:
            return k - 1
    if nvars <= 3:
        shorthand = {"x": 0, "y": 1, "z": 2}.get(name)
        if shorthand is not None and shorthand < nvars:
            return shorthand
    return None
