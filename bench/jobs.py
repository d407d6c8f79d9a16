"""Seeded job documents with planted answers, and the checks that use them.

Every job is a JSON document for one ``gridres`` subcommand plus an
``expect`` record derived here, with the benchmark's own raw-int /
``Fraction`` arithmetic, never by calling ``gridres``.  The schedule of
each workload (which subcommands, fields and sizes, in which order) is
fixed; the seed only draws the values, so every seed costs about the same.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import prod
from random import Random

P_GRID = 10007


# -- raw field arithmetic -----------------------------------------------------

class Arith:
    """F_p on ints in [0, p), or Q on Fractions; mirrors the CLI's text forms."""

    def __init__(self, p=None):
        self.p = p

    @property
    def spec(self) -> dict:
        if self.p is None:
            return {"kind": "rationals"}
        return {"kind": "prime-field", "modulus": str(self.p)}

    @property
    def label(self) -> str:
        return "Q" if self.p is None else f"F_{self.p}"

    def norm(self, v):
        if self.p is None:
            return Fraction(v)
        v = Fraction(v)
        return v.numerator * pow(v.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else a * b % self.p

    def inv(self, a):
        return 1 / Fraction(a) if self.p is None else pow(a, -1, self.p)

    def neg(self, a):
        return -a if self.p is None else -a % self.p

    def text(self, v) -> str:
        return str(self.norm(v))

    def nonzero(self, rng: Random):
        while True:
            if self.p is None:
                v = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 1, 2, 3)))
            else:
                v = rng.randrange(self.p)
            if v:
                return self.norm(v)

    def nodes(self, rng: Random, count: int, avoid_zero=False) -> list:
        pool = range(1, self.p) if self.p and avoid_zero else \
            range(self.p) if self.p else \
            [v for v in range(-40, 41) if v or not avoid_zero]
        return [self.norm(v) for v in rng.sample(pool, count)]


# -- raw polynomials: dict exponent-tuple -> coefficient -----------------------

def poly_mul(ar: Arith, f: dict, g: dict) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = ar.add(out.get(m, 0), ar.mul(c1, c2))
    return {m: c for m, c in out.items() if c}


def poly_add(ar: Arith, f: dict, g: dict) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = ar.add(out.get(m, 0), c)
    return {m: c for m, c in out.items() if c}


def poly_eval(ar: Arith, f: dict, point) -> object:
    total = ar.norm(0)
    for m, c in f.items():
        v = c
        for x, e in zip(point, m):
            if e:
                v = ar.mul(v, x ** e if ar.p is None else pow(x, e, ar.p))
        total = ar.add(total, v)
    return total


def vanishing(ar: Arith, nodes, var: int, nvars: int) -> dict:
    """prod (z_var - a) over the nodes, lifted to nvars variables."""
    out = {(0,) * nvars: ar.norm(1)}
    for a in nodes:
        lin = {tuple(1 if i == var else 0 for i in range(nvars)): ar.norm(1)}
        if a:
            lin[(0,) * nvars] = ar.neg(a)
        out = poly_mul(ar, out, lin)
    return out


def names_for(nvars: int) -> list[str]:
    return ["x", "y", "z"][:nvars] if nvars <= 3 else [f"z{i + 1}" for i in range(nvars)]


def poly_text(ar: Arith, f: dict, names) -> str:
    """Expression string in a fixed term order; the CLI parser reads it."""
    if not f:
        return "0"
    pieces = []
    for m in sorted(f, reverse=True):
        c = f[m]
        negative = ar.p is None and c < 0
        mag = -c if negative else c
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        pieces.append(("-" if negative else "+", "*".join(factors)))
    out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def box(sizes) -> list[tuple]:
    return list(product(*(range(s) for s in sizes)))


# -- jobs ----------------------------------------------------------------------

def job(kind, ar, doc, expect, size, cls):
    doc = dict(doc)
    doc["field"] = ar.spec
    return {"kind": kind, "doc": doc, "expect": expect,
            "meta": {"field": ar.label, "size": size, "class": cls}}


GRID_CLASS = "grid sum O(points*terms*n)"


def _dense(ar, rng, monomials, share):
    picked = rng.sample(monomials, max(1, int(len(monomials) * share)))
    return {m: ar.nonzero(rng) for m in picked}


def gen_coeff(rng, ar, sizes, share):
    n = len(sizes)
    target = tuple(k - 1 for k in sizes)
    grids = [ar.nodes(rng, k) for k in sizes]
    inner = [m for m in box(sizes) if m != target]
    f = _dense(ar, rng, inner, share)
    # spiked monomials: above the target somewhere, below it in coordinate j
    for _ in range(max(1, len(f) // 20)):
        j = rng.randrange(n)
        if target[j]:
            f[tuple(rng.randrange(target[j]) if i == j else target[i] + rng.randint(1, 2)
                    for i in range(n))] = ar.nonzero(rng)
    top = ar.nonzero(rng)
    f[target] = top
    doc = {"vars": names_for(n), "poly": poly_text(ar, f, names_for(n)),
           "grids": [[ar.text(a) for a in g] for g in grids]}
    expect = {"code": 0, "coefficient": ar.text(top), "target": list(target),
              "classical": max(sum(m) for m in f) <= sum(target)}
    points = prod(sizes)
    return job("coeff", ar, doc, expect,
               {"nvars": n, "grid_points": points, "terms": len(f)}, GRID_CLASS)


def gen_witness(rng, ar, sizes, share, zero_slabs):
    """f = prod_{j<k} (x_1 - a_j) * g vanishes on the first k slabs of axis 1."""
    n = len(sizes)
    target = tuple(k - 1 for k in sizes)
    grids = [ar.nodes(rng, k) for k in sizes]
    first = sorted(grids[0])[:zero_slabs]
    g_sizes = (sizes[0] - zero_slabs,) + tuple(sizes[1:])
    g_top = (g_sizes[0] - 1,) + target[1:]
    g = _dense(ar, rng, [m for m in box(g_sizes) if m != g_top], share)
    top = ar.nonzero(rng)
    g[g_top] = top
    f = poly_mul(ar, vanishing(ar, first, 0, n), g)
    doc = {"vars": names_for(n), "poly": poly_text(ar, f, names_for(n)),
           "grids": [[ar.text(a) for a in gr] for gr in grids]}
    expect = {"code": 0, "coefficient": ar.text(top), "poly": f,
              "grids": [sorted(gr) for gr in grids], "zero_slabs": zero_slabs}
    points = prod(sizes)
    return job("witness", ar, doc, expect,
               {"nvars": n, "grid_points": points, "terms": len(f),
                "zero_slabs": zero_slabs},
               GRID_CLASS + " + witness scan O(scanned*terms*n)")


def _bounded_monomials(nvars, bound):
    return [m for m in product(range(bound + 1), repeat=nvars) if sum(m) <= bound]


def gen_cb_verify(rng, ar, sizes, share, planted_top):
    n = len(sizes)
    grids = [ar.nodes(rng, k) for k in sizes]
    bound = sum(sizes) - n - 1
    f = _dense(ar, rng, _bounded_monomials(n, bound), share)
    top = ar.nonzero(rng) if planted_top else ar.norm(0)
    if planted_top:
        f[tuple(k - 1 for k in sizes)] = top
    degree = max(sum(m) for m in f)
    doc = {"vars": names_for(n), "poly": poly_text(ar, f, names_for(n)),
           "grids": [[ar.text(a) for a in g] for g in grids]}
    expect = {"code": 0, "residual": ar.text(top), "degree_bound": bound,
              "total_degree": degree}
    points = prod(sizes)
    return job("cb-verify", ar, doc, expect,
               {"nvars": n, "grid_points": points, "terms": len(f)}, GRID_CLASS)


def gen_cb_forced(rng, ar, sizes, share):
    n = len(sizes)
    grids = [ar.nodes(rng, k) for k in sizes]
    bound = sum(sizes) - n - 1
    f = _dense(ar, rng, _bounded_monomials(n, min(bound, 4)), share)
    points = list(product(*grids))
    target = rng.choice(points)
    values = [{"point": [ar.text(c) for c in pt], "value": ar.text(poly_eval(ar, f, pt))}
              for pt in points if pt != target]
    doc = {"grids": [[ar.text(a) for a in g] for g in grids],
           "target": [ar.text(c) for c in target], "values": values}
    expect = {"code": 0, "forced": ar.text(poly_eval(ar, f, target)),
              "target": [ar.text(c) for c in target]}
    return job("cb-forced", ar, doc, expect,
               {"nvars": n, "grid_points": len(points), "values": len(values)},
               "decode O(points*n) + relation O(points*n)")


def gen_hyper(rng, p, degrees, share):
    """Planted solution set: a separable grid, disguised by adding
    lower-degree multiples of earlier equations to later ones."""
    ar = Arith(p)
    n = len(degrees)
    grids = [ar.nodes(rng, k) for k in degrees]
    system = []
    for i, k in enumerate(degrees):
        g = vanishing(ar, grids[i], i, n)
        for j in range(i):
            slack = k - 1 - degrees[j]
            if slack >= 0:
                h = _dense(ar, rng, _bounded_monomials(n, slack), 0.5)
                g = poly_add(ar, g, poly_mul(ar, h, system[j]))
        system.append(g)
    target = tuple(k - 1 for k in degrees)
    f = _dense(ar, rng, _bounded_monomials(n, sum(degrees) - n), share)
    top = ar.nonzero(rng)
    f[target] = top
    names = names_for(n)
    doc = {"vars": names, "system": [poly_text(ar, g, names) for g in system],
           "poly": poly_text(ar, f, names)}
    sols = sorted(product(*grids))
    witness = next(pt for pt in sols if poly_eval(ar, f, pt))
    expect = {"code": 0, "solutions": [[str(c) for c in pt] for pt in sols],
              "coefficient": ar.text(top), "witness": [str(c) for c in witness],
              "witness_value": ar.text(poly_eval(ar, f, witness))}
    return job("hyper-verify", ar, doc, expect,
               {"p": p, "nvars": n, "enumerated_points": p ** n,
                "degrees": list(degrees), "terms": len(f)},
               "enumeration O(p^n * terms(g_1))")


# -- toric ---------------------------------------------------------------------

def _unimodular(rng, dim):
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(dim + 1):
        i, j = rng.sample(range(dim), 2)
        s = rng.choice((-1, 1))
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    return m


def _apply(m, pts):
    moved = [tuple(sum(r[k] * p[k] for k in range(len(p))) for r in m) for p in pts]
    low = [min(p[i] for p in moved) for i in range(len(m))]
    return [tuple(c - l for c, l in zip(p, low)) for p in moved]


def _convex_polygon(rng, count, room):
    """Lattice polygon with about `count` strictly convex vertices and at
    least `room` lattice points; returns (vertices, all lattice points)."""
    dirs = set()
    while len(dirs) < count // 2:
        a, b = rng.randint(0, 3), rng.randint(-3, 3)
        if (a, b) != (0, 0) and (a > 0 or b > 0) and _gcd(a, b) == 1:
            dirs.add((a, b))
    edges = sorted(dirs, key=lambda d: (Fraction(d[1], d[0]) if d[0] else Fraction(10**6)))
    edges += [(-a, -b) for a, b in edges]
    scale = 1
    while True:
        verts, cur = [], (0, 0)
        for a, b in edges:
            verts.append(cur)
            cur = (cur[0] + scale * a, cur[1] + scale * b)
        xs = [v[0] for v in verts]
        ys = [v[1] for v in verts]
        inside = [(x, y) for x in range(min(xs), max(xs) + 1)
                  for y in range(min(ys), max(ys) + 1) if _in_polygon(verts, (x, y))]
        if len(inside) >= room:
            return verts, inside
        scale += 1


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def _in_polygon(poly, q):
    n = len(poly)
    for i in range(n):
        o, a = poly[i], poly[(i + 1) % n]
        if (a[0] - o[0]) * (q[1] - o[1]) - (a[1] - o[1]) * (q[0] - o[0]) < 0:
            return False
    return True


def gen_newton(rng, ar, dim, npoints):
    """Support = planted vertices plus non-vertex points of their hull."""
    if dim == 2:
        verts, inside = _convex_polygon(rng, max(4, npoints // 3), 2 * npoints)
        others = [q for q in inside if q not in set(verts)]
        pts = set(verts) | set(rng.sample(others, npoints - len(verts)))
    else:
        # one parity class, so every midpoint of two vertices is a lattice point
        px, py = rng.randrange(2), rng.randrange(2)
        plane = rng.sample([(x, y) for x in range(-5, 6) for y in range(-5, 6)
                            if x % 2 == px and y % 2 == py], max(5, npoints // 3))
        verts = [(x, y, x * x + y * y) for x, y in plane]
        pts = set(verts)
        while len(pts) < npoints:
            # midpoints of hull points are never vertices
            a, b = rng.sample(sorted(pts), 2)
            if all((s - t) % 2 == 0 for s, t in zip(a, b)):
                pts.add(tuple((s + t) // 2 for s, t in zip(a, b)))
    pts = sorted(pts)
    vset = set(verts)
    m = _unimodular(rng, dim)
    moved = _apply(m, pts)
    vertices = sorted(q for q, p0 in zip(moved, pts) if p0 in vset)
    f = {q: ar.nonzero(rng) for q in moved}
    names = names_for(dim)
    doc = {"vars": names, "poly": poly_text(ar, f, names)}
    expect = {"code": 0, "vertices": [list(v) for v in vertices],
              "support": [list(q) for q in sorted(moved, key=lambda q: (sum(q), q))],
              "affine_dim": dim}
    return job("newton", ar, doc, expect,
               {"dim": dim, "support_points": len(moved), "vertices": len(vertices)},
               "one exact LP per support point O(N * simplex(N, d+1))")


def gen_unfolded_separable(rng, ar, sizes):
    n = len(sizes)
    grids = [ar.nodes(rng, k) for k in sizes]
    names = names_for(n)
    system = [poly_text(ar, vanishing(ar, g, i, n), names) for i, g in enumerate(grids)]
    doc = {"vars": names, "system": system}
    return job("unfolded", ar, doc, {"code": 0, "unfolded": True},
               {"nvars": n, "support_points": sum(k + 1 for k in sizes)},
               "hull LPs + O(candidates * polytopes) face tests")


def gen_unfolded_folded(rng, ar, dim, terms):
    """Random supports forced to share a positive-dimensional face in one direction."""
    while True:
        u = tuple(rng.randint(-2, 2) for _ in range(dim))
        if any(u):
            break
    axis = next(i for i in range(dim) if u[i])
    t = [0] * dim
    other = (axis + 1) % dim
    t[axis], t[other] = -u[other], u[axis]  # <u, t> = 0 and t != 0
    supports = []
    for _ in range(dim):
        pts = {tuple(rng.randint(0, 6 - 2 * dim) for _ in range(dim))
               for _ in range(terms)}
        top = max(pts, key=lambda q: (sum(a * b for a, b in zip(u, q)), q))
        pts.add(tuple(a + b for a, b in zip(top, t)))
        low = [min(q[i] for q in pts) for i in range(dim)]
        supports.append(sorted(tuple(c - l for c, l in zip(q, low)) for q in pts))
    names = names_for(dim)
    system = [poly_text(ar, {q: ar.nonzero(rng) for q in s}, names) for s in supports]
    doc = {"vars": names, "system": system}
    return job("unfolded", ar, doc, {"code": 1, "unfolded": False, "supports": supports},
               {"nvars": dim, "support_points": sum(len(s) for s in supports)},
               "hull LPs + O(candidates * polytopes) face tests")


def gen_toric_verify(rng, ar, sizes, extra_terms):
    n = len(sizes)
    grids = [ar.nodes(rng, k, avoid_zero=True) for k in sizes]
    target = tuple(k - 1 for k in sizes)
    f = {m: ar.nonzero(rng) for m in rng.sample(box(sizes), min(extra_terms, len(box(sizes))))}
    top = ar.nonzero(rng)
    f[target] = top
    names = names_for(n)
    doc = {"vars": names, "poly": poly_text(ar, f, names),
           "grids": [[ar.text(a) for a in g] for g in grids]}
    return job("toric-verify", ar, doc, {"code": 0, "coefficient": ar.text(top)},
               {"nvars": n, "grid_points": len(list(product(*grids))), "terms": len(f)},
               "vertex LPs + truncated residue series + exact solve")


# -- projective configurations over F_p ------------------------------------------

def _canon(p, v):
    lead = next(c for c in v if c % p)
    inv = pow(lead, -1, p)
    return tuple(c * inv % p for c in v)


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _adj3(m):
    return [[(m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
              - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3])
             for j in range(3)] for i in range(3)]


def _line_times(p, l, m):
    return tuple(sum(l[i] * m[i][j] for i in range(3)) % p for j in range(3))


def _mat_vec(p, m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(3)) % p for i in range(3))


def subgroup(p, n) -> list[int]:
    for a in range(2, p):
        b = pow(a, (p - 1) // n, p)
        if all(pow(b, d, p) != 1 for d in range(1, n)):
            return sorted(pow(b, i, p) for i in range(n))
    raise ValueError(f"no subgroup of order {n} mod {p}")


def _moved_subgroup_config(rng, p, n):
    """Subgroup model (red y = u, blue x = u*y, green x = u) under a random
    projective map; returns canonical lines and the map on points."""
    u_set = subgroup(p, n)
    red = [(0, 1, -u % p) for u in u_set]
    blue = [(1, -u % p, 0) for u in u_set]
    green = [(1, 0, -u % p) for u in u_set]
    while True:
        m = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        if not _det3(m) % p:
            continue
        fam = [[_canon(p, _line_times(p, l, m)) for l in f] for f in (red, blue, green)]
        if (0, 0, 1) not in fam[0] + fam[1] + fam[2]:
            # points move by the inverse map: adjugate up to a scalar
            return u_set, fam, _adj3(m)


def _scaled(rng, p, line):
    s = rng.randrange(1, p)
    return [str(c * s % p) for c in line]


def _grid_points(p, red, blue):
    return [_canon(p, _cross(p, r, b)) for r in red for b in blue]


def _cross(p, u, v):
    return ((u[1] * v[2] - u[2] * v[1]) % p, (u[2] * v[0] - u[0] * v[2]) % p,
            (u[0] * v[1] - u[1] * v[0]) % p)


def _on(p, line, pt):
    return sum(a * b for a, b in zip(line, pt)) % p == 0


LINES_CLASS = "O((p^2+p+1) * n^2) incidence scan + exact cover search"


def gen_lines_search(rng, p, n):
    u_set, (red, blue, green), _ = _moved_subgroup_config(rng, p, n)
    doc = {"red": [_scaled(rng, p, l) for l in red],
           "blue": [_scaled(rng, p, l) for l in blue]}
    expect = {"code": 0, "planted": sorted([str(c) for c in l] for l in green),
              "red": red, "blue": blue, "n": n}
    return job("lines-search", Arith(p), doc, expect,
               {"p": p, "n": n, "lines_scanned": p * p + p + 1, "grid_points": n * n},
               LINES_CLASS)


def gen_lines_check(rng, p, n, broken):
    u_set, (red, blue, green), adj = _moved_subgroup_config(rng, p, n)
    grid = _grid_points(p, red, blue)
    if broken:
        while True:
            bad = tuple(rng.randrange(p) for _ in range(3))
            if any(bad) and _canon(p, bad) not in red + blue + green:
                bad = _canon(p, bad)
                break
        green = green[1:] + [bad]
    uncovered = sorted(q for q in grid if not any(_on(p, g, q) for g in green))
    counts = sorted(sum(1 for q in grid if _on(p, g, q)) for g in green)
    doc = {"red": [_scaled(rng, p, l) for l in red],
           "blue": [_scaled(rng, p, l) for l in blue],
           "green": [_scaled(rng, p, l) for l in green]}
    expect = {"code": 1 if broken else 0, "valid": not broken, "grid_size": n * n,
              "points_per_green": counts,
              "uncovered": [[str(c) for c in q] for q in uncovered],
              "red": red, "blue": blue, "green": green}
    if not broken:
        expect["concurrent_at"] = [str(c) for c in _canon(p, _mat_vec(p, adj, (0, 1, 0)))]
    return job("lines-check", Arith(p), doc, expect,
               {"p": p, "n": n, "grid_points": n * n},
               "O(n^3) incidences + O(n^2)-term product forms")


def gen_lines_classify(rng, p, n):
    u_set, (red, blue, green), _ = _moved_subgroup_config(rng, p, n)
    doc = {"red": [_scaled(rng, p, l) for l in red],
           "blue": [_scaled(rng, p, l) for l in blue],
           "green": [_scaled(rng, p, l) for l in green]}
    us = [str(u) for u in u_set]
    expect = {"code": 0, "u_set": us,
              "normalized": {
                  "red": [[str(c) for c in (1, 0, -u % p)] for u in u_set],
                  "blue": [[str(c) for c in (0, 1, -u % p)] for u in u_set],
                  "green": [[str(c) for c in _canon(p, (u, p - 1, 0))] for u in u_set]}}
    return job("lines-classify", Arith(p), doc, expect,
               {"p": p, "n": n, "grid_points": n * n},
               "O(n^3) validation + O(n^2) normalization")


def _progression(rng, ar, count):
    """a + i*d for i < count: every such grid has the same collinear triples,
    so the cover search explores the same tree whatever the seed."""
    if ar.p is None:
        start, step = rng.randint(-20, 20), Fraction(rng.choice((1, 2, 3, 5)),
                                                    rng.choice((1, 2, 3)))
        step *= rng.choice((-1, 1))
    else:
        start, step = rng.randrange(ar.p), rng.randrange(1, ar.p)
    return [ar.norm(start + i * step) for i in range(count)]


def gen_cover_bound(rng, ar, n, m):
    a, b = _progression(rng, ar, n), _progression(rng, ar, m)
    excluded = [ar.text(a[1]), ar.text(b[1])]
    doc = {"grid": [[ar.text(v) for v in a], [ar.text(v) for v in b]],
           "excluded": excluded}
    return job("cover-bound", ar, doc,
               {"code": 0, "min": n + m - 2},
               {"n": n, "m": m, "grid_points": n * m - 1},
               "branch and bound over O(N^2) candidate traces")


def gen_problem1(rng, ar, n, m):
    """Axis grid x = a_i, y = b_j moved by a map that keeps every grid point affine."""
    a, b = _progression(rng, ar, n), _progression(rng, ar, m)
    red = [(1, 0, ar.neg(v)) for v in a]
    blue = [(0, 1, ar.neg(v)) for v in b]
    ex = (a[1], b[1], 1)
    while True:
        mat = [[ar.norm(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        if not ar.norm(_det3(mat)):
            continue
        adj = _adj3(mat)
        pts = [tuple(ar.norm(sum(adj[i][j] * q[j] for j in range(3))) for i in range(3))
               for q in [(x, y, 1) for x in a for y in b]]
        if all(q[2] for q in pts):
            break
    move = lambda l: [ar.text(ar.norm(sum(l[i] * mat[i][j] for i in range(3))))
                      for j in range(3)]
    exm = tuple(ar.norm(sum(adj[i][j] * ex[j] for j in range(3))) for i in range(3))
    doc = {"red": [move(l) for l in red], "blue": [move(l) for l in blue],
           "excluded": [ar.text(ar.mul(exm[0], ar.inv(exm[2]))),
                        ar.text(ar.mul(exm[1], ar.inv(exm[2])))]}
    return job("problem1-bound", ar, doc, {"code": 0, "min": n + m - 2},
               {"n": n, "m": m, "grid_points": n * m - 1},
               "branch and bound over O(N^2) candidate traces")


# -- workloads -----------------------------------------------------------------

FP = Arith(P_GRID)
QQ = Arith()


# Each schedule holds >= 100 jobs and runs in about 6-9 s on a 2-CPU machine.
# Percentiles are steadiest inside a block of equal-cost jobs whose cost does
# not depend on the drawn values, so each workload has a block of like jobs
# around its p90 and a block of like jobs around its median.

def _grid_jobs(rng):
    # Q arithmetic costs about 8x F_p, so the Q side gets sparser polynomials
    out = []
    for ar, dense in ((FP, 1.0), (QQ, 0.5)):
        for sizes, share, count in (([10, 10], 0.4, 4), ([12, 8], 0.4, 4), ([7, 7], 0.5, 5),
                                    ([9, 8], 0.4, 4), ([6, 6, 6], 0.4, 3),
                                    ([8, 7, 6], 0.3, 1)):
            out += [gen_coeff(rng, ar, sizes, share * dense) for _ in range(count)]
        for sizes, share, count in (([10, 10], 0.3, 2), ([8, 8, 6], 0.15 * dense, 1)):
            out += [gen_witness(rng, ar, sizes, share * dense, 3) for _ in range(count)]
        for sizes, share, count in (([9, 9], 0.4, 4), ([10, 8], 0.4, 4), ([7, 6], 0.5, 5),
                                    ([8, 8], 0.4, 4), ([6, 6, 6], 0.2, 2)):
            out += [gen_cb_verify(rng, ar, sizes, share * dense, i % 2 == 0)
                    for i in range(count)]
        for sizes in ([10, 10, 10], [12, 12, 7], [6, 6, 6, 5]):
            out.append(gen_cb_forced(rng, ar, sizes, 0.5))
    # the algebra p90 block: 3-variable grid sums of one size over F_p, whose
    # cost is points x terms whatever the values (about 100 ms, with about 20
    # jobs above them)
    out += [gen_cb_verify(rng, FP, [7, 6, 6], 0.7, i % 2 == 0) for i in range(12)]
    # the heaviest jobs: enumeration and 4-variable grid sums
    for p, degrees in ((127, (3, 4)), (23, (2, 3, 3)), (11, (2, 2, 2, 3))):
        out.append(gen_hyper(rng, p, degrees, 0.5))
    out.append(gen_coeff(rng, FP, [6, 6, 5, 5], 0.1))
    out.append(gen_witness(rng, QQ, [6, 6, 6, 4], 0.03, 3))
    out.append(gen_cb_verify(rng, QQ, [6, 5, 5, 4], 0.02, True))
    return out


def _toric_jobs(rng):
    out = []
    for ar in (QQ, Arith(101)):
        for dim, npts in ((2, 20), (2, 20), (3, 20), (3, 20), (2, 25)):
            out.append(gen_newton(rng, ar, dim, npts))
        for sizes in ([2, 3], [3, 3], [1, 4], [4, 2], [2, 2], [3, 2], [2, 4],
                      [2, 2, 2], [3, 1, 2], [1, 2, 3], [2, 1, 1], [3, 3, 1]):
            out.append(gen_unfolded_separable(rng, ar, sizes))
        for dim, terms in ((2, 4), (2, 5), (2, 6), (2, 4), (3, 3)):
            out.append(gen_unfolded_folded(rng, ar, dim, terms))
        for sizes in ([2, 2], [3, 2], [2, 3], [3, 3], [1, 3], [3, 1], [2, 2], [3, 2],
                      [2, 3], [3, 3], [2, 1], [1, 2], [2, 2], [3, 3], [2, 3], [3, 2],
                      [1, 1], [2, 2], [3, 2], [2, 3], [3, 3], [4, 2], [2, 4], [2, 2]):
            out.append(gen_toric_verify(rng, ar, sizes, 4))
    # 3-D hulls of 25 points; their LP cost varies with the drawn points, so
    # they sit just above the p90 block rather than form it
    out += [gen_newton(rng, (QQ, Arith(101))[i % 2], 3, 25) for i in range(8)]
    # the heaviest jobs: larger hulls and 3-D residue identities
    for ar in (QQ, Arith(101)):
        out.append(gen_newton(rng, ar, 2, 40))
        out.append(gen_newton(rng, ar, 3, 30))
        out.append(gen_toric_verify(rng, ar, [2, 2, 1], 4))
    return out


def _lines_jobs(rng):
    out = []
    for _ in range(4):
        for p, n in ((31, 5), (37, 6), (41, 8), (61, 5), (97, 6), (73, 8), (43, 7)):
            out.append(gen_lines_check(rng, p, n, broken=False))
        for p, n in ((31, 5), (41, 4)):
            out.append(gen_lines_check(rng, p, n, broken=True))
        for p, n in ((31, 5), (37, 6), (41, 8), (61, 4), (97, 6), (73, 8), (43, 7),
                     (53, 4), (29, 7), (31, 6)):
            out.append(gen_lines_classify(rng, p, n))
    for ar in (QQ, Arith(101)):
        for n, m in ((3, 3), (3, 4), (4, 4)):
            out.append(gen_cover_bound(rng, ar, n, m))
            out.append(gen_problem1(rng, ar, n, m))
    # the p90 block: cover searches of one size
    out += [gen_lines_search(rng, 37, 4) for _ in range(8)]
    # the heaviest jobs: searches over larger planes and 4x5 bounds
    for p, n in ((43, 6), (61, 4), (73, 4), (97, 4)):
        out.append(gen_lines_search(rng, p, n))
    out.append(gen_cover_bound(rng, QQ, 4, 5))
    out.append(gen_problem1(rng, Arith(101), 4, 5))
    return out


# The grid and toric schedules share one workload: two workloads leave room for
# longer runs, and a shared machine's drift averages out only over a long run.
WORKLOADS = {"algebra": lambda rng: _grid_jobs(rng) + _toric_jobs(rng),
             "lines": _lines_jobs}


def make_jobs(workload: str, seed: int) -> list[dict]:
    rng = Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    # interleave the kinds, so a slow stretch of a shared machine hits all alike
    rng.shuffle(jobs)
    for i, j in enumerate(jobs):
        j["id"] = f"{workload}-{i:03d}-{j['kind']}"
    return jobs


def doc_bytes(j) -> bytes:
    return json.dumps(j["doc"], sort_keys=True).encode()


# -- checks against the planted answers -----------------------------------------

def _arith(doc) -> Arith:
    spec = doc["field"]
    return Arith(int(spec["modulus"])) if spec["kind"] == "prime-field" else Arith()


def _ints(rows):
    return [tuple(int(c) for c in r) for r in rows]


def _product_form(p, lines):
    out = {(0, 0, 0): 1}
    for a, b, c in lines:
        out = poly_mul(Arith(p), out, {m: v for m, v in
                                       (((1, 0, 0), a), ((0, 1, 0), b), ((0, 0, 1), c)) if v})
    return out


def _check_coeff(e, r, ar):
    return (r["coefficient_via_grid"] == e["coefficient"] == r["coefficient_direct"]
            and r["agrees"] is True and r["target_exponent"] == e["target"]
            and r["classical_degree_ok"] == e["classical"])


def _check_witness(e, r, ar):
    w = r["witness"]
    if r["coefficient_via_grid"] != e["coefficient"] or w is None:
        return False
    point = [ar.norm(Fraction(c)) for c in w]
    value = poly_eval(ar, e["poly"], point)
    return (all(x in g for x, g in zip(point, e["grids"]))
            and point[0] not in e["grids"][0][:e["zero_slabs"]]
            and value != 0 and r["witness_value"] == ar.text(value))


def _check_cb_verify(e, r, ar):
    return (r["residual"] == e["residual"] and r["degree_bound"] == e["degree_bound"]
            and r["total_degree"] == e["total_degree"]
            and r["within_bound"] == (e["total_degree"] <= e["degree_bound"]))


def _check_cb_forced(e, r, ar):
    return r["forced_value"] == e["forced"] and r["target"] == e["target"]


def _check_hyper(e, r, ar):
    count = len(e["solutions"])
    return (r["solutions"] == e["solutions"] and r["solution_count"] == count
            and r["expected_count"] == count and r["hypothesis_ok"] is True
            and r["degree_ok"] is True and r["target_coefficient"] == e["coefficient"]
            and r["witness"] == e["witness"] and r["witness_value"] == e["witness_value"])


def _check_newton(e, r, ar):
    return (r["vertices"] == e["vertices"] and r["support"] == e["support"]
            and r["affine_dim"] == e["affine_dim"])


def _check_unfolded(e, r, ar):
    if r["unfolded"] is not e["unfolded"]:
        return False
    w = r["witness_direction"]
    if e["unfolded"]:
        return w is None
    if not w or not any(w):
        return False
    for support in e["supports"]:
        levels = [sum(a * b for a, b in zip(w, q)) for q in support]
        if levels.count(max(levels)) < 2:
            return False
    return True


def _check_toric_verify(e, r, ar):
    return (r["residue_sum"] == r["vertex_combination"] == r["coefficient_via_grid"]
            == e["coefficient"] and r["agree"] is True
            and r["unconstrained_vertices"] == [])


def _check_lines_search(e, r, ar):
    p, n = ar.p, e["n"]
    covers = [_ints(c) for c in r["covers"]]
    if r["cover_count"] != len(covers) or \
            list(map(tuple, covers)) != sorted(set(map(tuple, covers))):
        return False
    if sorted([str(c) for c in l] for l in e["planted"]) not in \
            [sorted(c) for c in r["covers"]]:
        return False
    grid = _grid_points(p, e["red"], e["blue"])
    forbidden = set(e["red"]) | set(e["blue"]) | {(0, 0, 1)}
    for cover in covers:
        if len(cover) != n or forbidden & set(cover):
            return False
        traces = [{q for q in grid if _on(p, l, q)} for l in cover]
        if any(len(t) != n for t in traces) or set().union(*traces) != set(grid):
            return False
    return True


def _check_lines_check(e, r, ar):
    if not (r["valid_cover"] is e["valid"] and r["grid_size"] == e["grid_size"]
            and r["points_per_green"] == e["points_per_green"]
            and r["uncovered"] == e["uncovered"] and r["identity_violations"] == []):
        return False
    if not e["valid"]:
        return "product_dependence" not in r
    if r["greens_concurrent_at"] != e["concurrent_at"]:
        return False
    p = ar.p
    alpha, beta, gamma = (int(c) for c in r["product_dependence"])
    if not (alpha and beta and gamma == 1):
        return False
    a = Arith(p)
    scale = lambda f, s: {m: a.mul(c, s) for m, c in f.items()}
    mix = poly_add(a, scale(_product_form(p, e["red"]), alpha),
                   scale(_product_form(p, e["blue"]), beta))
    return mix == _product_form(p, e["green"])


def _check_lines_classify(e, r, ar):
    return (r["u_set"] == r["v_set"] == r["slopes"] == e["u_set"]
            and r["is_subgroup"] is r["v_equals_u"] is r["slopes_equal_u"] is True
            and r["equivalent_to_subgroup_model"] is True
            and r["normalized"] == e["normalized"])


def _check_cover_bound(e, r, ar):
    return r == {"min_cover": e["min"], "bound": e["min"], "meets_bound": True}


def _check_problem1(e, r, ar):
    return r == {"min_green_lines": e["min"], "bound": e["min"], "meets_bound": True}


CHECKS = {
    "coeff": _check_coeff, "witness": _check_witness, "cb-verify": _check_cb_verify,
    "cb-forced": _check_cb_forced, "hyper-verify": _check_hyper,
    "newton": _check_newton, "unfolded": _check_unfolded,
    "toric-verify": _check_toric_verify, "lines-search": _check_lines_search,
    "lines-check": _check_lines_check, "lines-classify": _check_lines_classify,
    "cover-bound": _check_cover_bound, "problem1-bound": _check_problem1,
}


def check(j, code, report) -> str | None:
    """None when the report carries the planted answer, else the reason."""
    e = j["expect"]
    if code != e["code"]:
        return f"exit code {code}, expected {e['code']}"
    if "error" in report or "result" not in report:
        return f"error report: {report.get('error')}"
    try:
        ok = CHECKS[j["kind"]](e, report["result"], _arith(j["doc"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        return f"malformed result: {type(err).__name__}: {err}"
    return None if ok else "result differs from the planted answer"
