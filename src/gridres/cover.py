"""Exact minimum line cover of planar point sets avoiding a forbidden point.

Candidate lines are restricted to lines through at least two of the
points (not through the forbidden point, never the infinity line) plus a
singleton line for each point that no such line covers, built from the
point's pencil with no walk over the plane; any minimal cover can be
rewritten inside this family, so the search space stays finite over the
rationals.  A point on a kept pair line needs no singleton: the pair line
covers all the singleton does, so a cover using the singleton is no
smaller with the pair line in its place.

The search is branch and bound on int bitmasks.  Points are ranked once,
by their number of pair traces and then by index (a candidate through an
uncovered point always covers it, so that count never changes), and bit k
of a mask is the point of rank k.  Each trace and the uncovered set are
ints, and the branch point is the lowest set bit of the uncovered set.
The lower bound is the residual-trace bound: the fewest of the largest
residual sizes |t & uncovered| that sum to at least |uncovered|.  The
residual sizes and a histogram of them (sizes are at most the largest
trace) are updated on each branch, only for the traces through the newly
covered points, and restored from a copy on backtrack, so the bound is a
short loop over the histogram.  One budget node is one call of the
search, pruned or not.  A transposition table maps each uncovered mask
that passed the bound to the fewest lines with which it was expanded;
a revisit with as many lines or more returns at once, since the earlier
visit already searched every completion with at least as much room, so
the search returns the same first minimum cover from fewer nodes.  The
bound depends on the mask alone, so a mask the bound cut is not stored;
the table holds at most one entry per node, so the budget bounds it.

Sibling dominance: at a node, a candidate whose residual |t & uncovered|
is a subset of the residual of a sibling tried before it is skipped, and
a skipped sibling is not a node.  Every completion of the skipped branch
completes the earlier one with as many lines, and a cover is recorded
only when strictly smaller, so the first minimum cover stays the same.

`_pair_keys` is the one source of candidate lines: the green cover
search in `lines` filters its keys as well.  A trace is the union of its
pairs, so no incidence test is needed to find it.  The pairs are joined
on ints: over F_p the key of a pair is the raw `_scaled` cross product
of the canonical triples, over Q each point is scaled once to its
primitive integer triple and the key is their cross product over its
gcd, with its first nonzero entry positive.  Both searches filter the
keys on ints and build a `ProjLine` (`ProjLine._raw(field, key)`) only
for the keys they keep: the cover search for the lines of the cover it
returns, the green search for the lines with an n-point trace.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

from .errors import BudgetExceededError
from .field import Field
from .projective import (ProjLine, ProjPoint, _same_field, _scaled, _spanning_lines,
                         infinity_line, line_through)


def _singleton_line(field: Field, point: ProjPoint, excluded: ProjPoint) -> ProjLine:
    """The first of u, v and u + v (the spanning lines of the point's pencil
    and their sum) that is not the infinity line and avoids the excluded
    point.  Of three lines through the point at most one is the infinity
    line and at most one is its join with the excluded point, so one
    qualifies unless the excluded point is the point itself."""
    inf = infinity_line(field)
    u, v = _spanning_lines(point)
    for vec in (u, v, [a + b for a, b in zip(u, v)]):
        line = ProjLine._raw(field, vec)
        if line != inf and not line.contains(excluded):
            return line
    raise ValueError(f"no line through {point} avoids {excluded}")


def _primitive(coords) -> tuple:
    """The primitive integer multiple of a canonical triple over Q.  Over the
    lcm of the denominators the entries are coprime, and the first nonzero
    one stays positive."""
    scale = lcm(*(c.denominator for c in coords))
    return tuple(c.numerator * (scale // c.denominator) for c in coords)


def _pair_keys(points: Sequence[ProjPoint]) -> dict:
    """Map the integer key of each line through two or more of the points
    -> set of the indices of the points on it.  A trace is the union of its
    pairs, since each point on such a line pairs with another one on it.
    Repeated points and mixed fields raise the error `line_through` raises
    for the first such pair."""
    n = len(points)
    if n < 2:
        return {}
    field = points[0].field
    if len(set(points)) < n or any(q.field is not field and q.field != field
                                   for q in points):
        for a, b in combinations(points, 2):
            line_through(a, b)
    p = field.modulus
    vecs = [q.coords for q in points] if p else [_primitive(q.coords) for q in points]
    traces: dict = {}
    for i, (a0, a1, a2) in enumerate(vecs):
        for j in range(i + 1, n):
            b0, b1, b2 = vecs[j]
            c0, c1, c2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
            if p:
                key = _scaled(p, (c0, c1, c2))
            else:
                g = gcd(c0, c1, c2)
                if c0 < 0 or not c0 and (c1 < 0 or not c1 and c2 < 0):
                    g = -g
                key = (c0 // g, c1 // g, c2 // g)
            # pairs come in index order, so the line's first point is in already
            trace = traces.get(key)
            if trace is None:
                traces[key] = {i, j}
            else:
                trace.add(j)
    return traces


def candidate_traces(points: Sequence[ProjPoint], excluded: ProjPoint,
                     field: Field) -> dict:
    """Map frozenset-of-point-indices -> raw triple of a line through exactly
    those points that avoids excluded and is not the infinity line
    (`ProjLine._raw(field, triple)` builds it).

    The pair keys are filtered on ints: the infinity line is the key
    (0, 0, k), and a line passes through excluded when its key's dot
    product with excluded's triple (primitive over Q) vanishes.  A point
    on a kept pair trace gets no singleton line, since that trace
    dominates it."""
    points = list(points)
    if points:
        _same_field(points[0], excluded)
    p = field.modulus
    e0, e1, e2 = excluded.coords if p else _primitive(excluded.coords)
    # a line through two points is fixed by its trace, so traces stay distinct
    traces: dict = {}
    covered: set = set()
    for key, trace in _pair_keys(points).items():
        k0, k1, k2 = key
        dot = k0 * e0 + k1 * e1 + k2 * e2
        if (k0 or k1) and (dot % p if p else dot):
            traces[frozenset(trace)] = key
            covered |= trace
    for i, point in enumerate(points):
        if i not in covered:
            traces[frozenset([i])] = _singleton_line(field, point, excluded).coords
    return traces


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def min_line_cover(points: Sequence[ProjPoint], excluded: ProjPoint,
                   field: Field, budget: int | None = None):
    """(size, lines) of a minimum cover of the points avoiding excluded.

    Candidates are tried big traces first, then by point indices, and one
    whose residual an earlier sibling's holds is skipped.  The branch
    point is the uncovered point with the fewest pair traces, then the
    lowest index.  A node is pruned once the chosen lines plus the
    residual-trace bound reach the best size found so far; the bound adds
    up residual sizes |t & uncovered| from the largest down until they
    reach |uncovered|.  Every valid bound returns the same first minimum
    cover in this order, and a stronger one visits fewer nodes.  Past
    `budget` nodes, BudgetExceededError reports the best size found."""
    points = list(points)
    if len(set(points)) != len(points):
        raise ValueError("cover points must be distinct")
    if excluded in points:
        raise ValueError(f"excluded point {excluded} is among the points to cover")
    if not points:
        return 0, ()
    traces = candidate_traces(points, excluded, field)
    # deterministic candidate order: big traces first, then by point indices
    order = sorted(traces, key=lambda t: (-len(t), sorted(t)))
    # points ranked by their pair traces, then index: the order the full
    # family, with a singleton for every point, gives, so the first minimum
    # cover found is that family's
    through = Counter(i for t in order if len(t) > 1 for i in t)
    ranked = sorted(range(len(points)), key=lambda i: (through[i], i))
    bit = {i: 1 << k for k, i in enumerate(ranked)}
    masks = [sum(bit[i] for i in t) for t in order]
    # the candidates through the point of rank k, in candidate order
    containing = [[c for c, m in enumerate(masks) if m >> k & 1]
                  for k in range(len(points))]
    residual = [len(t) for t in order]
    max_trace = residual[0]
    hist = [0] * (max_trace + 1)
    for size in residual:
        hist[size] += 1

    best_size = len(points) + 1
    best_cover: tuple = ()
    chosen: list = []
    nodes = 0
    expanded: dict = {}  # uncovered mask -> fewest lines it was expanded with

    def search(uncovered: int):
        nonlocal best_size, best_cover, nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(budget, len(best_cover) if best_cover else None)
        if not uncovered:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_cover = tuple(chosen)
            return
        depth = len(chosen)
        if expanded.get(uncovered, depth + 1) <= depth:
            return
        # residual-trace bound, cut short once it fills the room left
        room = best_size - depth
        need = uncovered.bit_count()
        bound = 0
        for size in range(max_trace, 0, -1):
            count = hist[size]
            if count * size >= need:
                bound += -(-need // size)
                break
            need -= count * size
            bound += count
            if bound >= room:
                break
        if bound >= room:
            return
        expanded[uncovered] = depth
        saved = residual[:], hist[:]
        tried: list = []
        for c in containing[(uncovered & -uncovered).bit_length() - 1]:
            newly = masks[c] & uncovered
            # a sibling that covered a superset leaves no more to cover
            for seen in tried:
                if newly | seen == seen:
                    break
            else:
                tried.append(newly)
                # each trace through a newly covered point loses it
                rest = newly
                while rest:
                    low = rest & -rest
                    rest ^= low
                    for t in containing[low.bit_length() - 1]:
                        size = residual[t]
                        hist[size] -= 1
                        hist[size - 1] += 1
                        residual[t] = size - 1
                chosen.append(c)
                search(uncovered ^ newly)
                chosen.pop()
                residual[:], hist[:] = saved

    search((1 << len(points)) - 1)
    return best_size, tuple(ProjLine._raw(field, traces[order[c]]) for c in best_cover)
