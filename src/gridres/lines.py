"""Red, blue, and green line families over a finite field or the rationals.

Machinery for the two desk problems on transversal grids: finding all
green families of n lines covering the n-by-n red-blue intersection grid,
certifying the product dependence alpha*R + beta*B = gamma*G when the
greens are concurrent, normalizing biconcurrent configurations down to
the multiplicative-subgroup model, and checking the n+m-2 lower bound for
covers that dodge one grid point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .cover import lines_through_pairs, min_line_cover
from .errors import BudgetExceededError, CounterexampleError
from .field import Field, FieldElement, FieldMismatchError
from .multipoly import MultiPoly
from .projective import (ProjLine, ProjPoint, affine_candidate_points,
                         infinity_line, line_through, meet, pencil)


class GridPoints:
    """All red-blue intersection points, each tagged with its parent pair."""

    __slots__ = ("field", "entries", "points")

    def __init__(self, field: Field, entries):
        self.field = field
        self.entries = tuple(entries)  # (point, red_index, blue_index)
        self.points = tuple(sorted((e[0] for e in self.entries)))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.points)


def grid_intersections(red: Sequence[ProjLine], blue: Sequence[ProjLine]) -> GridPoints:
    """The |red|*|blue| pairwise intersections, verified pairwise distinct.

    Points at infinity are allowed; coincident intersections (or a shared
    red/blue line) are reported with the colliding parent pairs.
    """
    red, blue = list(red), list(blue)
    if not red or not blue:
        raise ValueError("both families must be nonempty")
    field = red[0].field
    if len(set(red)) != len(red):
        raise ValueError("repeated red line")
    if len(set(blue)) != len(blue):
        raise ValueError("repeated blue line")
    shared = set(red) & set(blue)
    if shared:
        raise ValueError(f"line {sorted(shared)[0]} is both red and blue")
    seen: dict[ProjPoint, tuple] = {}
    entries = []
    for i, r in enumerate(red):
        for j, b in enumerate(blue):
            p = meet(r, b)
            if p in seen:
                pi, pj = seen[p]
                raise ValueError(
                    f"intersections coincide at {p}: red {pi} x blue {pj} "
                    f"and red {i} x blue {j} (grid is not transversal)")
            seen[p] = (i, j)
            entries.append((p, i, j))
    return GridPoints(field, entries)


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

    __slots__ = ("field", "red", "blue", "green")

    def __init__(self, field: Field, red, blue, green):
        self.field = field
        self.red = tuple(red)
        self.blue = tuple(blue)
        self.green = tuple(green)
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
    from reds and blues.  Diagnostics partition the grid by covering line."""
    grid = grid_intersections(config.red, config.blue)
    diagnostics: dict = {"grid_size": len(grid)}
    clashes = sorted(set(config.green) & (set(config.red) | set(config.blue)))
    diagnostics["identity_violations"] = tuple(clashes)
    coverage = {g: tuple(sorted(p for p in grid.points if g.contains(p)))
                for g in config.green}
    diagnostics["covered_by_green"] = coverage
    covered = set()
    for pts in coverage.values():
        covered.update(pts)
    uncovered = tuple(sorted(set(grid.points) - covered))
    diagnostics["uncovered"] = uncovered
    counts = sorted(len(v) for v in coverage.values())
    diagnostics["points_per_green"] = tuple(counts)
    ok = not clashes and not uncovered and \
        len(config.green) == len(config.red) == len(config.blue)
    return ok, diagnostics


def search_green_covers(red: Sequence[ProjLine], blue: Sequence[ProjLine],
                        field: Field, budget: int | None = None) -> list[tuple[ProjLine, ...]]:
    """All n-line green families covering the n*n grid, canonically sorted.

    A cover line meets the grid in exactly n points, so for n >= 2 the
    candidates are the lines through pairs of grid points with an n-point
    trace (`cover.lines_through_pairs`), over F_p or Q alike.  For n = 1
    they are the pencil through the one grid point, finite only over F_p;
    over Q that case raises ValueError.  Red, blue and infinity lines are
    never candidates.  Every returned cover is asserted to split the grid
    into n disjoint n-point traces.
    """
    red, blue = list(red), list(blue)
    for line in red + blue:
        if line.field != field:
            raise FieldMismatchError(f"line {line} is over {line.field}, not {field}")
    n = len(red)
    if len(blue) != n:
        raise ValueError("need equally many red and blue lines")
    grid = grid_intersections(red, blue)
    points = grid.points
    if n == 1:
        if not field.is_prime_field:
            raise ValueError("a one-point grid has infinitely many cover lines over Q")
        traces = {line: frozenset([0]) for line in pencil(points[0])}
    else:
        traces = lines_through_pairs(points)
    forbidden = set(red) | set(blue) | {infinity_line(field)}
    candidates = sorted(((line, trace) for line, trace in traces.items()
                         if len(trace) == n and line not in forbidden),
                        key=lambda c: c[0].sort_key())
    containing = {i: [c for c in candidates if i in c[1]] for i in range(len(points))}

    # the branches at a node take distinct lines through the pick point and
    # an exact cover holds exactly one of them, so each cover is found once
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
    covers = sorted(tuple(sorted(sol)) for sol in solutions)
    for cover in covers:
        _assert_partition(cover, points, n)
    return covers


def _assert_partition(cover, points, n):
    """Each cover line meets the grid in exactly n points, disjointly."""
    seen: set = set()
    for line in cover:
        trace = {p for p in points if line.contains(p)}
        if len(trace) != n:
            raise CounterexampleError(
                f"cover line {line} meets the grid in {len(trace)} points, expected {n}")
        if trace & seen:
            raise CounterexampleError(f"cover line {line} overlaps another cover line")
        seen.update(trace)
    if len(seen) != len(points):
        raise CounterexampleError("cover misses grid points")


def product_form(lines: Sequence[ProjLine]) -> MultiPoly:
    """Product of the canonical linear forms, homogeneous in (x, y, z)."""
    lines = list(lines)
    if not lines:
        raise ValueError("empty line family")
    field = lines[0].field
    out = MultiPoly.constant(field, 3, 1)
    for line in lines:
        a, b, c = line.coords
        form = MultiPoly.from_terms(field, 3, {(1, 0, 0): a, (0, 1, 0): b,
                                               (0, 0, 1): c})
        out = out * form
    return out


def verify_product_dependence(config: LineConfiguration):
    """Nonzero (alpha, beta, gamma) with alpha*R + beta*B = gamma*G, exactly.

    Requires a valid green cover with concurrent greens.  The scalars come
    from evaluating at the green concurrency point plus one off-configuration
    point; the identity is then checked term by term, and a failure raises
    CounterexampleError because it would contradict the dependence claim.
    """
    common = concurrency_point(config.green)
    if common is None:
        raise ValueError("green lines are not concurrent")
    ok, diagnostics = validate_green_cover(config)
    if not ok:
        raise ValueError(f"not a valid green cover: {diagnostics}")
    field = config.field
    big_r = product_form(config.red)
    big_b = product_form(config.blue)
    big_g = product_form(config.green)
    r0 = big_r.evaluate(common.coords)
    b0 = big_b.evaluate(common.coords)
    if r0.is_zero() or b0.is_zero():
        raise CounterexampleError(
            "green concurrency point lies on a red or blue line of a valid cover")
    alpha, beta = b0, -r0
    mix = alpha * big_r + beta * big_b
    probe = None
    for q in affine_candidate_points(field, ()):
        if not big_g.evaluate(q.coords).is_zero():
            probe = q
            break
    if probe is None:
        raise ValueError("no probe point off the green family found")
    gamma = mix.evaluate(probe.coords) * big_g.evaluate(probe.coords).inv()
    if gamma.is_zero():
        raise CounterexampleError("red and blue products are proportional")
    if mix != big_g * gamma:
        raise CounterexampleError(
            "product dependence failed term-by-term verification")
    inv = gamma.inv()
    return alpha * inv, beta * inv, field.one


def _multiplicative_subgroup(field: Field, n: int) -> list[FieldElement]:
    """The unique order-n subgroup of F_p^*; requires n | p - 1."""
    p = field.modulus
    if (p - 1) % n != 0:
        raise ValueError(f"{n} does not divide {p} - 1")
    exponent = (p - 1) // n
    for a in range(2, p):
        b = pow(a, exponent, p)
        order = 1
        acc = b
        while acc != 1:
            acc = acc * b % p
            order += 1
        if order == n:
            out = []
            acc = 1
            for _ in range(n):
                out.append(field(acc))
                acc = acc * b % p
            return sorted(out)
    if n == 1:
        return [field.one]
    raise ValueError(f"no subgroup of order {n} found")  # unreachable for prime p


def roots_of_unity_config(field: Field, n: int) -> LineConfiguration:
    """The subgroup construction: red y = u, blue x = u*y, green x = u.

    U is the multiplicative subgroup of order n (n must divide p - 1); the
    resulting grid is U x U and the greens cover it by x-coordinate.
    """
    if not field.is_prime_field:
        raise ValueError("subgroup construction needs a prime field")
    subgroup = _multiplicative_subgroup(field, n)
    one, zero = field.one, field.zero
    red = [ProjLine(field, (zero, one, -u)) for u in subgroup]
    blue = [ProjLine(field, (one, -u, zero)) for u in subgroup]
    green = [ProjLine(field, (one, zero, -u)) for u in subgroup]
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


def _is_subgroup(field: Field, elements: Sequence[FieldElement]) -> bool:
    values = set(elements)
    if field.zero in values or field.one not in values:
        return False
    return all(a * b in values for a in values for b in values)


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
    with the subgroup construction.
    """
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
        raise ValueError(f"not a valid green cover: {diagnostics}")
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
    third = None
    for q in affine_candidate_points(field, ()):
        if not anchor_line.contains(q):
            third = q
            break
    basis = [list(p_blue.coords), list(p_red.coords), list(third.coords)]
    # S has the three points as columns; the point map is S^{-1}, under
    # which a line with row vector l transports to l.S
    matrix = [[basis[j][i] for j in range(3)] for i in range(3)]

    def map_line(line: ProjLine) -> ProjLine:
        a, b, c = line.coords
        coeffs = [a * matrix[0][j] + b * matrix[1][j] + c * matrix[2][j]
                  for j in range(3)]
        return ProjLine(field, coeffs)

    red_t = [map_line(l) for l in config.red]
    blue_t = [map_line(l) for l in config.blue]
    green_t = [map_line(l) for l in config.green]

    u_raw = []
    for line in red_t:
        a, b, c = line.coords
        if not b.is_zero() or a.is_zero():
            raise CounterexampleError(f"red line failed to normalize: {line}")
        u_raw.append(-c / a)
    v_raw = []
    for line in blue_t:
        a, b, c = line.coords
        if not a.is_zero() or b.is_zero():
            raise CounterexampleError(f"blue line failed to normalize: {line}")
        v_raw.append(-c / b)
    slopes_raw, intercepts_raw = [], []
    for line in green_t:
        a, b, c = line.coords
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
        is_subgroup=_is_subgroup(field, u_set),
        v_equals_u=v_set == u_set,
        slopes_equal_u=slopes == u_set)

    one, zero = field.one, field.zero
    normalized = LineConfiguration(
        field,
        red=[ProjLine(field, (one, zero, -u)) for u in u_set],
        blue=[ProjLine(field, (zero, one, -v)) for v in v_set],
        green=[ProjLine(field, (s, -one, zero)) for s in slopes])
    return normalized, report


def check_problem1_bound(red: Sequence[ProjLine], blue: Sequence[ProjLine],
                         excluded: ProjPoint, field: Field,
                         budget: int | None = None):
    """(minimum green count, n+m-2, verdict) for covering the grid minus
    one point with lines avoiding that point."""
    grid = grid_intersections(red, blue)
    if excluded not in grid.points:
        raise ValueError(f"excluded point {excluded} is not a grid point")
    rest = [p for p in grid.points if p != excluded]
    size, _ = min_line_cover(rest, excluded, field, budget=budget)
    bound = len(red) + len(blue) - 2
    return size, bound, size >= bound
