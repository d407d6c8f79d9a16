"""Seeded random generators shared across the test modules."""

from fractions import Fraction
from itertools import combinations, product
from math import gcd
from random import Random

from gridres import Field, MultiPoly, grid_weights


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


def pointwise_grid_sum(f: MultiPoly, nodes):
    """Oracle: sum over the grid of f(x) * prod_i grid_weights(A_i)[x_i].

    Evaluates f at every grid point in field elements, with no per-axis
    factorization.
    """
    weights = [grid_weights(ns) for ns in nodes]
    total = f.field.zero
    for x in product(*nodes):
        w = f.field.one
        for wi, xi in zip(weights, x):
            w = w * wi[xi]
        total = total + f.evaluate(x) * w
    return total


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


def _det3(u, v, w):
    return (u[0] * (v[1] * w[2] - v[2] * w[1])
            - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def collinear(p, q, r) -> bool:
    """Whether three projective points lie on one line (their determinant
    vanishes)."""
    return _det3(p.coords, q.coords, r.coords).is_zero()


def traces_by_incidence_scan(points):
    """Oracle: for each line through two of the points, the frozenset of
    the indices of all points on it, found by scanning every point for
    every pair.  Returns the set of distinct traces."""
    return {frozenset(k for k, r in enumerate(points) if collinear(points[i], points[j], r))
            for i, j in combinations(range(len(points)), 2)}
