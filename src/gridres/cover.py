"""Exact minimum line cover of planar point sets avoiding a forbidden point.

Candidate lines are restricted to lines through at least two of the
points (not through the forbidden point, never the infinity line) plus
one singleton line per point; any minimal cover can be rewritten inside
this family, so the search space stays finite over the rationals.  The
search is branch and bound on the uncovered point with fewest candidates,
tie-broken canonically, with a configurable node budget.

`lines_through_pairs` is the one source of candidate lines: the green
cover search in `lines` draws its candidates from it as well.
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
    indices of the points on it; each distinct line's trace is computed once."""
    traces: dict[ProjLine, frozenset] = {}
    for i, j in combinations(range(len(points)), 2):
        line = line_through(points[i], points[j])
        if line not in traces:
            traces[line] = frozenset(k for k, p in enumerate(points) if line.contains(p))
    return traces


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
    """(size, lines) of a minimum cover of the points avoiding excluded."""
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
        pick = min(uncovered,
                   key=lambda i: (sum(1 for t in containing[i] if t & uncovered), i))
        for t in containing[pick]:
            search(uncovered - t, chosen + [t])

    search(all_idx, [])
    return best_size, tuple(traces[t] for t in best_cover)
