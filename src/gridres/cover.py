"""Exact minimum line cover of planar point sets avoiding a forbidden point.

Candidate lines are restricted to lines through at least two of the
points (not through the forbidden point, never the infinity line) plus
one singleton line per point; any minimal cover can be rewritten inside
this family, so the search space stays finite over the rationals.  The
search is branch and bound on the uncovered point with fewest candidates,
tie-broken by index, with a configurable node budget.  A candidate
through an uncovered point always covers that point, so each point's
branch count is fixed for the whole search and the points are ranked once.

`lines_through_pairs` is the one source of candidate lines: the green
cover search in `lines` draws its candidates from it as well.  A trace
is the union of its pairs, so no incidence test is needed to find it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .errors import BudgetExceededError
from .field import Field
from .projective import (ProjLine, ProjPoint, affine_candidate_points,
                         infinity_line, line_through)


def _singleton_line(field: Field, point: ProjPoint, excluded: ProjPoint) -> ProjLine:
    """Some line through the point that avoids the excluded point."""
    inf = infinity_line(field)
    for q in affine_candidate_points(field, [point, excluded]):
        line = line_through(point, q)
        if line != inf and not line.contains(excluded):
            return line
    raise ValueError(f"no line through {point} avoids {excluded}")


def lines_through_pairs(points: Sequence[ProjPoint]) -> dict:
    """Map each line through two or more of the points -> frozenset of the
    indices of the points on it.  A trace is the union of its pairs, since
    each point on such a line pairs with another one on it."""
    traces: dict[ProjLine, set] = {}
    for i, j in combinations(range(len(points)), 2):
        traces.setdefault(line_through(points[i], points[j]), set()).update((i, j))
    return {line: frozenset(trace) for line, trace in traces.items()}


def candidate_traces(points: Sequence[ProjPoint], excluded: ProjPoint,
                     field: Field) -> dict:
    """Map frozenset-of-point-indices -> representative covering line."""
    inf = infinity_line(field)
    # a line through two points is fixed by its trace, so traces stay distinct
    traces = {trace: line for line, trace in lines_through_pairs(points).items()
              if line != inf and not line.contains(excluded)}
    for i in range(len(points)):
        trace = frozenset([i])
        if trace not in traces:
            traces[trace] = _singleton_line(field, points[i], excluded)
    return traces


def min_line_cover(points: Sequence[ProjPoint], excluded: ProjPoint,
                   field: Field, budget: int | None = None):
    """(size, lines) of a minimum cover of the points avoiding excluded.

    Branches on the uncovered point with the fewest candidates, then the
    lowest index.  A candidate through an uncovered point contains it, so
    that count is fixed for the whole search and is ranked once."""
    points = list(points)
    if len(set(points)) != len(points):
        raise ValueError("cover points must be distinct")
    if excluded in points:
        raise ValueError(f"excluded point {excluded} is among the points to cover")
    if not points:
        return 0, ()
    traces = candidate_traces(points, excluded, field)
    # deterministic candidate order: big traces first, then by line
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
