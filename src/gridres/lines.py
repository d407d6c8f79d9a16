"""Red, blue, and green line families over a finite field or the rationals.

Machinery for the two desk problems on transversal grids: finding all
green families of n lines covering the n-by-n red-blue intersection grid,
certifying the product dependence alpha*R + beta*B = gamma*G when the
greens are concurrent, normalizing biconcurrent configurations down to
the multiplicative-subgroup model, and checking the n+m-2 lower bound for
covers that dodge one grid point.  Below the API everything computes on
raw canonical triples (ints mod p, Fractions over Q): the grid join is
inline cross products scaled by `projective._scaled` and keyed by triple,
with one `ProjPoint` built per grid point after the sort; cover validation
and the partition check of each searched cover are inline dot products by
grid index; the dependence is certified by evaluating the line products
at the points of one pencil in one loop per product, with no polynomial
expansion; normalization reads u, v and the green slopes off the
canonical transported triples.  Only the reported sets and the dependence
scalars are field elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .cover import _bits, _pair_keys, min_line_cover
from .errors import BudgetExceededError, CounterexampleError
from .field import Field, FieldElement, FieldMismatchError
from .linalg import _inverse
from .polytope import _dot
from .projective import (ProjLine, ProjPoint, _same_field, _scaled, infinity_line,
                         line_through, meet, pencil)


def grid_intersections(red: Sequence[ProjLine], blue: Sequence[ProjLine]) -> tuple:
    """The |red|*|blue| pairwise intersections, sorted and verified pairwise
    distinct.

    Points at infinity are allowed; coincident intersections (or a shared
    red/blue line) are reported with the colliding parent pairs, and mixed
    fields raise the error `meet` raises for the first such pair.  The
    meets are raw cross products keyed by their canonical triple, and each
    point is built once, after the sort.
    """
    red, blue = list(red), list(blue)
    if not red or not blue:
        raise ValueError("both families must be nonempty")
    if len(set(red)) != len(red):
        raise ValueError("repeated red line")
    if len(set(blue)) != len(blue):
        raise ValueError("repeated blue line")
    shared = set(red) & set(blue)
    if shared:
        raise ValueError(f"line {sorted(shared)[0]} is both red and blue")
    field = red[0].field
    mixed = any(l.field is not field and l.field != field for l in red + blue)
    p = field.modulus
    blues = [b.coords for b in blue]
    seen: dict[tuple, tuple] = {}
    for i, r in enumerate(red):
        r0, r1, r2 = r.coords
        for j, (b0, b1, b2) in enumerate(blues):
            if mixed:  # the error meet raises, at the same pair
                _same_field(r, blue[j])
            key = _scaled(p, (r1 * b2 - r2 * b1, r2 * b0 - r0 * b2, r0 * b1 - r1 * b0))
            if key in seen:
                pi, pj = seen[key]
                raise ValueError(
                    f"intersections coincide at {ProjPoint._canonical(field, key)}: "
                    f"red {pi} x blue {pj} and red {i} x blue {j} (grid is not transversal)")
            seen[key] = (i, j)
    return tuple([ProjPoint._canonical(field, key) for key in sorted(seen)])


def concurrency_point(lines: Iterable[ProjLine]):
    """Common projective point of all the lines, or None."""
    lines = list(dict.fromkeys(lines))
    if len(lines) < 2:
        raise ValueError("concurrency needs at least two distinct lines")
    candidate = meet(lines[0], lines[1])
    if all(l.contains(candidate) for l in lines[2:]):
        return candidate
    return None


class LineConfiguration:
    """Red, blue, green families; lines within each family are distinct."""

    __slots__ = ("field", "red", "blue", "green", "_validation")

    def __init__(self, field: Field, red, blue, green):
        self.field = field
        self.red = tuple(red)
        self.blue = tuple(blue)
        self.green = tuple(green)
        self._validation = None
        for name, family in (("red", self.red), ("blue", self.blue),
                             ("green", self.green)):
            if len(set(family)) != len(family):
                raise ValueError(f"repeated line in the {name} family")
            for line in family:
                if line.field != field:
                    raise FieldMismatchError(f"{name} line over {line.field}")

    @property
    def n(self) -> int:
        return len(self.red)


def validate_green_cover(config: LineConfiguration):
    """(ok, diagnostics): every grid point on a green line, greens distinct
    from reds and blues.  Diagnostics partition the grid by covering line.
    The families never change, so the result is computed once per
    configuration and shared by later calls; do not modify it.
    """
    if config._validation is not None:
        return config._validation
    grid = grid_intersections(config.red, config.blue)
    diagnostics: dict = {"grid_size": len(grid)}
    clashes = sorted(set(config.green) & (set(config.red) | set(config.blue)))
    diagnostics["identity_violations"] = tuple(clashes)
    # raw incidence on the canonical triples, by grid index; the grid is
    # sorted already
    p = config.field.modulus
    triples = [q.coords for q in grid]
    hit = [False] * len(grid)
    coverage = {}
    for g in config.green:
        on = _incident(g.coords, triples, p)
        for k in on:
            hit[k] = True
        coverage[g] = tuple([grid[k] for k in on])
    diagnostics["covered_by_green"] = coverage
    uncovered = tuple([q for q, h in zip(grid, hit) if not h])
    diagnostics["uncovered"] = uncovered
    counts = sorted(len(v) for v in coverage.values())
    diagnostics["points_per_green"] = tuple(counts)
    ok = not clashes and not uncovered and \
        len(config.green) == len(config.red) == len(config.blue)
    config._validation = ok, diagnostics
    return config._validation


def _require_cover(config: LineConfiguration):
    """Raise unless validate_green_cover accepts config, in one line: the
    counts of uncovered points and identity violations, the first
    uncovered point, and the family sizes when they differ."""
    ok, diagnostics = validate_green_cover(config)
    if not ok:
        out = diagnostics["uncovered"]
        sizes = len(config.red), len(config.blue), len(config.green)
        raise ValueError(
            f"not a valid green cover: {len(out)} uncovered grid points"
            + (f", first {out[0]}" if out else "")
            + f"; {len(diagnostics['identity_violations'])} identity violations"
            + ("" if len(set(sizes)) == 1 else
               "; family sizes {} red, {} blue, {} green".format(*sizes)))


def search_green_covers(red: Sequence[ProjLine], blue: Sequence[ProjLine],
                        field: Field, budget: int | None = None) -> list[tuple[ProjLine, ...]]:
    """All n-line green families covering the n*n grid, canonically sorted.

    A cover line meets the grid in exactly n points, so for n >= 2 the
    candidates are the lines through pairs of grid points with an n-point
    trace, over F_p or Q alike: the pair keys of `cover._pair_keys` are
    filtered by trace size, and a line is built only for the keys that
    pass.  For n = 1 they are the pencil through the one grid point, finite
    only over F_p; over Q that case raises ValueError.  Red, blue and
    infinity lines are never candidates.  The exact-cover search runs on
    int bitmasks of the grid points and branches on the point with the
    fewest live candidates, then the lowest index.  Every returned cover is
    asserted to split the grid into n disjoint n-point traces.
    """
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
        traces = {ProjLine._raw(field, key): trace
                  for key, trace in _pair_keys(points).items() if len(trace) == n}
    forbidden = set(red) | set(blue) | {infinity_line(field)}
    # (line, mask) with bit i of the mask for grid point i
    candidates = sorted(((line, sum(1 << i for i in trace)) for line, trace in traces.items()
                         if line not in forbidden),
                        key=lambda c: c[0])
    containing = [[c for c in candidates if c[1] >> i & 1] for i in range(len(points))]

    # the branches at a node take distinct lines through the pick point and
    # an exact cover holds exactly one of them, so each cover is found once
    solutions: list = []
    nodes = 0

    def search(uncovered: int, chosen: tuple):
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(budget, n if solutions else None)
        if not uncovered:
            solutions.append(chosen)
            return
        pick = min(_bits(uncovered),
                   key=lambda i: (sum(1 for _, m in containing[i] if m & uncovered == m), i))
        for line, m in containing[pick]:
            if m & uncovered == m:
                search(uncovered ^ m, chosen + (line,))

    search((1 << len(points)) - 1, ())
    covers = sorted(tuple(sorted(sol)) for sol in solutions)
    for cover in covers:
        _assert_partition(cover, points, n)
    return covers


def _incident(line, triples, p) -> list[int]:
    """Indices of the raw point triples on the raw line (p is the modulus,
    or None over Q)."""
    a, b, c = line
    if p:
        return [k for k, (x, y, z) in enumerate(triples) if not (a * x + b * y + c * z) % p]
    return [k for k, (x, y, z) in enumerate(triples) if not a * x + b * y + c * z]


def _assert_partition(cover, points, n):
    """Each cover line meets the grid in exactly n points, disjointly, by
    raw incidence on the canonical triples, apart from the search's masks."""
    p = points[0].field.modulus
    triples = [q.coords for q in points]
    seen: set = set()
    for line in cover:
        trace = set(_incident(line.coords, triples, p))
        if len(trace) != n:
            raise CounterexampleError(
                f"cover line {line} meets the grid in {len(trace)} points, expected {n}")
        if trace & seen:
            raise CounterexampleError(f"cover line {line} overlaps another cover line")
        seen.update(trace)
    if len(seen) != len(points):
        raise CounterexampleError("cover misses grid points")


def _pencil_points(n: int) -> list[tuple]:
    """P_n as raw triples: n + 1 points on each of the n + 1 lines x = a*z
    (a < n) and z = 0 through (0 : 1 : 0), distinct over Q and over F_p
    with p >= n.  A form of degree n vanishing on P_n is divisible by all
    n + 1 lines, so it is zero."""
    return ([(a, b, 1) for a in range(n) for b in range(n)]
            + [(1, b, 0) for b in range(n)] + [(0, 1, 0)])


def verify_product_dependence(config: LineConfiguration):
    """Nonzero (alpha, beta, gamma) with alpha*R + beta*B = gamma*G, exactly,
    scaled to gamma = 1; R, B and G are the products of the line forms.

    Requires a valid green cover with concurrent greens, which forces
    p >= n over F_p.  alpha = B(c) and beta = -R(c) at the green
    concurrency point c, gamma is read at the first point of
    `_pencil_points` off the greens, and the identity is checked on raw
    values at every point of P_n, which is exact in degree n (Alon,
    Lemma 2.1).  Each product is one loop over the family's raw triples,
    reduced mod p once.  A failure raises CounterexampleError because it
    would contradict the dependence claim.
    """
    common = concurrency_point(config.green)
    if common is None:
        raise ValueError("green lines are not concurrent")
    _require_cover(config)
    field = config.field
    p = field.modulus
    n = config.n
    if p and p < n:
        # c is off the reds, so each green holds at most p grid points
        raise CounterexampleError(
            f"{n} concurrent greens over F_{p} cannot cover {n * n} grid points")

    def mod(x):
        return x % p if p else x

    families = [[line.coords for line in family]
                for family in (config.red, config.blue, config.green)]

    def products(q):
        x, y, z = q
        out = []
        for family in families:
            v = 1
            for a, b, c in family:
                v *= a * x + b * y + c * z
            out.append(v % p if p else v)
        return out

    r0, b0, _ = products(common.coords)
    if not r0 or not b0:
        raise CounterexampleError(
            "green concurrency point lies on a red or blue line of a valid cover")
    alpha, beta = b0, mod(-r0)
    values = [(mod(alpha * r + beta * b), g) for r, b, g in map(products, _pencil_points(n))]
    # gamma = mix0 / green0 at the first point off the greens
    for mix0, green0 in values:
        if green0:
            break
    else:
        raise CounterexampleError("the green product vanishes on every pencil point")
    if any(mod(mix * green0 - mix0 * green) for mix, green in values):
        raise CounterexampleError("product dependence failed on the pencil points")
    if not mix0:  # then alpha*R + beta*B vanishes on P_n, so it is zero
        raise CounterexampleError("red and blue products are proportional")
    scale = mod(green0 * _inverse(mix0, p))  # 1 / gamma
    return (FieldElement(field, mod(alpha * scale)), FieldElement(field, mod(beta * scale)),
            field.one)


def _multiplicative_subgroup(field: Field, n: int) -> list[int]:
    """The order-n subgroup of F_p^* as sorted residues; requires n | p - 1."""
    p = field.modulus
    if (p - 1) % n != 0:
        raise ValueError(f"{n} does not divide {p} - 1")
    step = (p - 1) // n
    for a in range(1, p):
        powers = {pow(a, k * step, p) for k in range(n)}
        if len(powers) == n:
            return sorted(powers)
    raise ValueError(f"no subgroup of order {n} found")  # unreachable for prime p


def roots_of_unity_config(field: Field, n: int) -> LineConfiguration:
    """The subgroup construction: red y = u, blue x = u*y, green x = u.

    U is the multiplicative subgroup of order n (n must divide p - 1); the
    resulting grid is U x U and the greens cover it by x-coordinate.
    """
    if not field.is_prime_field:
        raise ValueError("subgroup construction needs a prime field")
    subgroup = _multiplicative_subgroup(field, n)
    red = [ProjLine._raw(field, (0, 1, -u)) for u in subgroup]
    blue = [ProjLine._raw(field, (1, -u, 0)) for u in subgroup]
    green = [ProjLine._raw(field, (1, 0, -u)) for u in subgroup]
    config = LineConfiguration(field, red, blue, green)
    ok, diagnostics = validate_green_cover(config)
    if not ok:
        raise CounterexampleError(f"subgroup construction failed validation: {diagnostics}")
    return config


@dataclass(frozen=True)
class NormalizationReport:
    """Outcome of reducing a biconcurrent configuration to normal form."""

    u_set: tuple
    v_set: tuple
    slopes: tuple
    is_subgroup: bool
    v_equals_u: bool
    slopes_equal_u: bool

    @property
    def success(self) -> bool:
        return self.is_subgroup and self.v_equals_u and self.slopes_equal_u


def normalize_biconcurrent(config: LineConfiguration):
    """Normalize a covering configuration with concurrent red and green
    families; returns (normalized configuration, report).

    Steps follow the constructive uniqueness argument: a projective map
    sends the red pencil to vertical lines x = u and the blue pencil to
    horizontal lines y = v (the blue family must also be concurrent for
    such a map to exist; this is checked), the node sets are centered so
    their averages vanish, and the x axis is rescaled so 1 lies in U.  The
    report then records whether U is a multiplicative subgroup with V = U
    and green slopes equal to U, which certifies projective equivalence
    with the subgroup construction.  The values are read off the canonical
    transported triples and stay raw; only the reported sets are field
    elements.
    """
    field = config.field
    p = field.modulus
    n = config.n
    if n < 2:
        raise ValueError("normalization needs at least two lines per family")
    if not (len(config.blue) == len(config.green) == n):
        raise ValueError("normalization needs equally sized families")
    char = field.characteristic()
    if char and gcd(n, char) != 1:
        raise ValueError(f"family size {n} shares a factor with the characteristic {char}")
    _require_cover(config)
    p_red = concurrency_point(config.red)
    if p_red is None:
        raise ValueError("red lines are not concurrent")
    if concurrency_point(config.green) is None:
        raise ValueError("green lines are not concurrent")
    p_blue = concurrency_point(config.blue)
    if p_blue is None:
        raise ValueError("blue lines are not concurrent "
                         "(required to reach the axis-pencil normal form)")
    if p_red == p_blue:
        raise ValueError("red and blue pencils share their center")

    def mod(x):
        return x % p if p else x

    # the three candidates are not collinear, so one is off the anchor line
    anchor = line_through(p_red, p_blue).coords
    third = next(q for q in ((0, 0, 1), (0, 1, 1), (1, 0, 1)) if mod(_dot(anchor, q)))
    basis = (p_blue.coords, p_red.coords, third)

    # the point map S^{-1} (S has the three points as columns) takes a line
    # l to l.S; canonically, reds become (1, 0, c): x = -c, blues (0, 1, c):
    # y = -c, and greens (1, b, c) with b != 0: y = s*x + c*s, s = -1/b
    def transport(family, name, nonzero_ab):
        triples = []
        for line in family:
            moved = ProjLine._raw(field, [_dot(line.coords, col) for col in basis])
            if (bool(moved.coords[0]), bool(moved.coords[1])) != nonzero_ab:
                raise CounterexampleError(f"{name} line failed to normalize: {moved}")
            triples.append(moved.coords)
        return triples

    u_raw = [mod(-c) for _, _, c in transport(config.red, "red", (True, False))]
    v_raw = [mod(-c) for _, _, c in transport(config.blue, "blue", (False, True))]
    greens = transport(config.green, "green", (True, True))
    slopes_raw = [mod(-_inverse(b, p)) for _, b, _ in greens]

    n_inv = _inverse(n, p)
    mean_u = mod(sum(u_raw) * n_inv)
    mean_v = mod(sum(v_raw) * n_inv)
    u_centered = [mod(u - mean_u) for u in u_raw]
    v_centered = [mod(v - mean_v) for v in v_raw]
    # greens y = s*x + c*s become y = s*x + (s*(c + mean_u) - mean_v)
    if any(mod(s * (c + mean_u) - mean_v) for (_, _, c), s in zip(greens, slopes_raw)):
        raise CounterexampleError(
            "green line misses the origin after centering; the cover "
            "bijections force a common intercept")

    u_scale = next(u for u in sorted(u_centered) if u)
    base_slope = min(slopes_raw)
    u_inv, v_inv, s_inv = (_inverse(x, p) for x in (u_scale, base_slope * u_scale, base_slope))
    u_set = sorted(mod(u * u_inv) for u in u_centered)
    v_set = sorted(mod(v * v_inv) for v in v_centered)
    slopes = sorted(mod(s * s_inv) for s in slopes_raw)
    units = set(u_set)

    def wrap(values):
        return tuple(FieldElement(field, x) for x in values)

    report = NormalizationReport(
        u_set=wrap(u_set), v_set=wrap(v_set), slopes=wrap(slopes),
        is_subgroup=0 not in units and 1 in units
        and all(mod(a * b) in units for a in units for b in units),
        v_equals_u=v_set == u_set,
        slopes_equal_u=slopes == u_set)

    normalized = LineConfiguration(
        field,
        red=[ProjLine._raw(field, (1, 0, -u)) for u in u_set],
        blue=[ProjLine._raw(field, (0, 1, -v)) for v in v_set],
        green=[ProjLine._raw(field, (s, -1, 0)) for s in slopes])
    return normalized, report


def check_problem1_bound(red: Sequence[ProjLine], blue: Sequence[ProjLine],
                         excluded: ProjPoint, field: Field,
                         budget: int | None = None):
    """(minimum green count, n+m-2, verdict) for covering the grid minus
    one point with lines avoiding that point."""
    grid = grid_intersections(red, blue)
    if excluded not in grid:
        raise ValueError(f"excluded point {excluded} is not a grid point")
    rest = [p for p in grid if p != excluded]
    size, _ = min_line_cover(rest, excluded, field, budget=budget)
    bound = len(red) + len(blue) - 2
    return size, bound, size >= bound
