from itertools import combinations
from random import Random

import pytest

from gridres import BudgetExceededError, Field, ProjPoint
from gridres.cover import candidate_traces, lines_through_pairs, min_line_cover

from helpers import collinear, traces_by_incidence_scan

Q = Field.rationals()
F5 = Field.prime(5)


def pt(field, x, y):
    return ProjPoint.affine(field, x, y)


def test_candidates_avoid_excluded_and_infinity():
    points = [pt(Q, a, b) for a in (0, 1, 2) for b in (0, 1) if (a, b) != (0, 0)]
    traces = candidate_traces(points, pt(Q, 0, 0), Q)
    for trace, line in traces.items():
        assert not line.contains(pt(Q, 0, 0))
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
    with pytest.raises(BudgetExceededError):
        min_line_cover(points, pt(Q, 0, 0), Q, budget=1)


def test_collinear_points_one_line():
    points = [pt(Q, i, i) for i in range(1, 5)]
    size, lines = min_line_cover(points, pt(Q, 1, 0), Q)
    assert size == 1


@pytest.mark.parametrize("rows, nodes", [(3, 80), (4, 1122)])
def test_node_counts_pinned(rows, nodes):
    # the branching order fixes the tree, so --budget keeps its meaning
    points = [pt(Q, a, b) for a in range(3) for b in range(rows) if (a, b) != (0, 0)]
    size, _ = min_line_cover(points, pt(Q, 0, 0), Q, budget=nodes)
    assert size == 3 + rows - 2
    with pytest.raises(BudgetExceededError):
        min_line_cover(points, pt(Q, 0, 0), Q, budget=nodes - 1)


def _check_traces_against_scan(points):
    traces = lines_through_pairs(points)
    assert set(traces.values()) == traces_by_incidence_scan(points)
    assert len(set(traces.values())) == len(traces)
    for line, trace in traces.items():
        for k, p in enumerate(points):
            dot = sum((a * b for a, b in zip(line.coords, p.coords)), p.field.zero)
            assert dot.is_zero() == (k in trace), (line, p)


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


def _oracle_candidates(points, excluded):
    """Traces of lines avoiding excluded, by incidence scan: a trace of two or
    more points qualifies unless its line passes through excluded or is the
    infinity line; every point also has a line meeting the set only there."""
    out = {frozenset([i]) for i in range(len(points))}
    for trace in traces_by_incidence_scan(points):
        i, j = sorted(trace)[:2]
        on_infinity = all(points[k].is_infinite() for k in trace)
        if not on_infinity and not collinear(points[i], points[j], excluded):
            out.add(trace)
    return out


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
            traces = _oracle_candidates(points, excluded)
            assert set(candidate_traces(points, excluded, field)) == traces
            best = None
            for r in range(1, len(points) + 1):
                for combo in combinations(traces, r):
                    if frozenset().union(*combo) == frozenset(range(len(points))):
                        best = r
                        break
                if best is not None:
                    break
            assert size == best, (points, excluded, size, best)
