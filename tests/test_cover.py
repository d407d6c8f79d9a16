from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from gridres import (BudgetExceededError, Field, FieldMismatchError, ProjLine, ProjPoint,
                     line_through)
from gridres import cover
from gridres.cover import candidate_traces, lines_through_pairs, min_line_cover
from gridres.projective import infinity_line

from helpers import (assert_cover, element_contains, oracle_candidates,
                     oracle_min_line_cover, traces_by_incidence_scan)

Q = Field.rationals()
F5 = Field.prime(5)
F7 = Field.prime(7)


def pt(field, x, y):
    return ProjPoint.affine(field, x, y)


def test_candidates_avoid_excluded_and_infinity():
    points = [pt(Q, a, b) for a in (0, 1, 2) for b in (0, 1) if (a, b) != (0, 0)]
    traces = candidate_traces(points, pt(Q, 0, 0), Q)
    for trace, vec in traces.items():
        line = ProjLine._raw(Q, vec)
        assert line != infinity_line(Q) and not line.contains(pt(Q, 0, 0))
        for i in trace:
            assert line.contains(points[i])
    # the bottom row pair (1,0)-(2,0) lies on y = 0 through the excluded point,
    # so no candidate covers both of them together with nothing else
    bottom = frozenset(i for i, p in enumerate(points)
                       if p in (pt(Q, 1, 0), pt(Q, 2, 0)))
    assert bottom not in traces


def test_min_cover_over_prime_field():
    points = [pt(F5, a, b) for a in (0, 1, 2) for b in (0, 1) if (a, b) != (0, 0)]
    size, lines = min_line_cover(points, pt(F5, 0, 0), F5)
    assert size == 3 == len(lines)
    covered = set()
    for line in lines:
        assert not line.contains(pt(F5, 0, 0))
        covered |= {p for p in points if line.contains(p)}
    assert covered == set(points)


def test_min_cover_validation():
    with pytest.raises(ValueError, match="among the points"):
        min_line_cover([pt(Q, 1, 1)], pt(Q, 1, 1), Q)
    with pytest.raises(ValueError, match="distinct"):
        min_line_cover([pt(Q, 1, 1), pt(Q, 1, 1)], pt(Q, 0, 0), Q)


def test_budget_exceeded():
    points = [pt(Q, a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    with pytest.raises(BudgetExceededError) as err:
        min_line_cover(points, pt(Q, 0, 0), Q, budget=1)
    assert (err.value.nodes, err.value.best) == (1, None)
    with pytest.raises(BudgetExceededError) as err:
        min_line_cover(points, pt(Q, 0, 0), Q, budget=12)
    assert (err.value.nodes, err.value.best) == (12, 4)


def test_collinear_points_one_line():
    points = [pt(Q, i, i) for i in range(1, 5)]
    size, lines = min_line_cover(points, pt(Q, 1, 0), Q)
    assert size == 1


@pytest.mark.parametrize("rows, nodes", [(3, 80), (4, 1122)])
def test_node_counts_pinned(rows, nodes):
    # the previous search (the oracle, bounded only by the largest trace)
    # explores exactly `nodes`; a budget that sufficed for it still suffices
    # for the residual-trace search, with the same answer
    points = [pt(Q, a, b) for a in range(3) for b in range(rows) if (a, b) != (0, 0)]
    expected = oracle_min_line_cover(points, pt(Q, 0, 0), Q, budget=nodes)
    assert expected[0] == 3 + rows - 2
    with pytest.raises(BudgetExceededError):
        oracle_min_line_cover(points, pt(Q, 0, 0), Q, budget=nodes - 1)
    assert min_line_cover(points, pt(Q, 0, 0), Q, budget=nodes) == expected


# exact node counts of the residual-trace search with its transposition table
# and sibling dominance
RESIDUAL_NODES = {3: 13, 4: 57}


@pytest.mark.parametrize("rows, untabled_nodes", [(3, 26), (4, 135)])
def test_residual_bound_node_counts_pinned(rows, untabled_nodes):
    # the branching order, the residual-trace bound, the transposition table
    # and sibling dominance fix the tree, so --budget keeps its meaning; the
    # table and dominance only cut branches, so the counts of the search
    # without them still suffice
    points = [pt(Q, a, b) for a in range(3) for b in range(rows) if (a, b) != (0, 0)]
    nodes = RESIDUAL_NODES[rows]
    expected = min_line_cover(points, pt(Q, 0, 0), Q, budget=untabled_nodes)
    assert expected[0] == 3 + rows - 2
    assert min_line_cover(points, pt(Q, 0, 0), Q, budget=nodes) == expected
    with pytest.raises(BudgetExceededError):
        min_line_cover(points, pt(Q, 0, 0), Q, budget=nodes - 1)


def test_candidate_build_makes_one_line_per_distinct_line(monkeypatch):
    """The pairs of a Q 4x5 grid, on the progressions of the benchmark's
    grids, are joined on ints: one `ProjLine` per distinct line."""
    xs = [Fraction(-7) + i * Fraction(5, 3) for i in range(4)]
    ys = [Fraction(4) - j * Fraction(3, 2) for j in range(5)]
    points = [pt(Q, x, y) for x in xs for y in ys if (x, y) != (xs[1], ys[1])]
    built = []
    original = ProjLine._raw.__func__

    def counted(cls, field, vec):
        built.append(vec)
        return original(cls, field, vec)

    monkeypatch.setattr(ProjLine, "_raw", classmethod(counted))
    traces = lines_through_pairs(points)
    assert len(built) == len(traces) < len(points) * (len(points) - 1) // 2
    monkeypatch.undo()
    assert set(traces.values()) == traces_by_incidence_scan(points)
    for line, trace in traces.items():
        i, j = sorted(trace)[:2]
        assert line == line_through(points[i], points[j])


def test_lines_through_pairs_errors():
    with pytest.raises(ValueError, match="need two distinct points"):
        lines_through_pairs([pt(Q, 0, 1), pt(Q, 1, 1), pt(Q, 0, 1)])
    with pytest.raises(FieldMismatchError, match="mixed fields"):
        lines_through_pairs([pt(Q, 0, 1), pt(Q, 1, 1), pt(F5, 2, 1)])
    # the first offending pair decides, as for line_through
    with pytest.raises(ValueError, match="need two distinct points, got \\(0 : 1 : 1\\)"):
        lines_through_pairs([pt(Q, 0, 1), pt(Q, 0, 1), pt(F5, 2, 1)])
    with pytest.raises(FieldMismatchError, match="mixed fields"):
        lines_through_pairs([pt(Q, 0, 1), pt(F5, 2, 1), pt(Q, 0, 1)])
    assert lines_through_pairs([pt(Q, 0, 1)]) == {} == lines_through_pairs([])


def _check_traces_against_scan(points):
    traces = lines_through_pairs(points)
    assert set(traces.values()) == traces_by_incidence_scan(points)
    assert len(set(traces.values())) == len(traces)
    for line, trace in traces.items():
        for k, p in enumerate(points):
            assert element_contains(line, p) == (k in trace), (line, p)


@pytest.mark.parametrize("field", [Q, F5, Field.prime(11)], ids=str)
def test_lines_through_pairs_against_incidence_scan(field):
    rng = Random(f"pairs-{field}")
    coords = range(field.modulus) if field.is_prime_field else range(-3, 4)
    pool = [pt(field, a, b) for a in coords for b in coords]
    pool += [ProjPoint(field, (1, m, 0)) for m in coords] + [ProjPoint(field, (0, 1, 0))]
    for _ in range(30):
        _check_traces_against_scan(rng.sample(pool, rng.randint(2, 12)))
    # collinear runs of three or more points, with the run's point at infinity
    run = [pt(field, i, 2 * i + 1) for i in range(4)]
    _check_traces_against_scan(run)
    _check_traces_against_scan(run + [ProjPoint(field, (1, 2, 0)), pt(field, 0, 3),
                                      pt(field, 1, 2), ProjPoint(field, (0, 1, 0))])


def test_min_cover_against_subset_brute_force():
    rng = Random(83)
    for field in (Q, F5):
        for _ in range(12):
            coords = range(field.modulus) if field.is_prime_field else range(-3, 4)
            pool = [pt(field, a, b) for a in coords for b in coords]
            rng.shuffle(pool)
            points = pool[:rng.randint(1, 6)]
            excluded = pool[6]
            size, _ = min_line_cover(points, excluded, field)
            traces = set(oracle_candidates(points, excluded, field))
            # a singleton stays only where no pair trace covers its point
            kept = {t for t in traces if len(t) > 1 or not any(t < s for s in traces)}
            assert set(candidate_traces(points, excluded, field)) == kept
            best = None
            for r in range(1, len(points) + 1):
                for combo in combinations(traces, r):
                    if frozenset().union(*combo) == frozenset(range(len(points))):
                        best = r
                        break
                if best is not None:
                    break
            assert size == best, (points, excluded, size, best)


def test_singletons_survive_only_off_every_kept_pair_line():
    """Points whose every pair line passes through excluded or is the
    infinity line keep their singleton lines, and the search still returns
    the oracle's cover."""
    excluded = pt(Q, 0, 0)
    # (1 : 1 : 0) pairs only with points of y = x and with points at infinity
    star = [pt(Q, 1, 1), pt(Q, 2, 2), ProjPoint(Q, (1, 1, 0)), ProjPoint(Q, (1, 0, 0)),
            ProjPoint(Q, (0, 1, 0))]
    # every pair line passes through excluded
    ray = [pt(Q, 1, 2), pt(Q, 2, 4), pt(Q, -1, -2), ProjPoint(Q, (1, 2, 0))]
    for points, alone, size in ((star, {2}, 3), (ray, {0, 1, 2, 3}, 4)):
        traces = candidate_traces(points, excluded, Q)
        assert {i for t in traces if len(t) == 1 for i in t} == alone
        assert all(not t & alone for t in traces if len(t) > 1)
        found = min_line_cover(points, excluded, Q)
        assert found == oracle_min_line_cover(points, excluded, Q)
        assert_cover(points, excluded, found[1], size)


def test_grid_cover_builds_lines_only_for_the_answer(monkeypatch):
    """On a Q 4x5 grid minus a point every point lies on a kept pair line,
    so no singleton line is built, and the only `ProjLine`s built are the
    returned cover's."""
    grid = [pt(Q, a, b) for a in range(4) for b in range(5)]
    excluded = grid[6]
    points = [p for p in grid if p != excluded]
    singletons, built = [], []
    original = ProjLine._raw.__func__
    monkeypatch.setattr(cover, "_singleton_line",
                        lambda *args: singletons.append(args) or None)
    monkeypatch.setattr(ProjLine, "_raw",
                        classmethod(lambda cls, f, vec: built.append(vec) or original(cls, f, vec)))
    monkeypatch.setattr(ProjLine, "__init__", lambda *args: built.append(args))
    size, lines = min_line_cover(points, excluded, Q)
    monkeypatch.undo()
    assert not singletons
    assert size == 7 and len(built) == len(lines) == size
    assert (size, lines) == oracle_min_line_cover(points, excluded, Q)


@pytest.mark.parametrize("field", [Q, F5, F7], ids=str)
@pytest.mark.parametrize("k1, k2", [(k1, k2) for k1 in range(1, 5) for k2 in range(1, 5)])
def test_grids_minus_each_point_match_oracle(field, k1, k2):
    """Every k1 x k2 grid minus each of its points: the residual-trace search
    returns the oracle's cover, which has the Alon-Furedi size k1 + k2 - 2."""
    grid = [pt(field, a, b) for a in range(k1) for b in range(k2)]
    for excluded in grid:
        points = [p for p in grid if p != excluded]
        size, lines = min_line_cover(points, excluded, field)
        assert (size, lines) == oracle_min_line_cover(points, excluded, field)
        assert size == k1 + k2 - 2
        assert_cover(points, excluded, lines, size)
