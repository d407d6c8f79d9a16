from itertools import combinations
from random import Random

import pytest

from gridres import (Field, FieldMismatchError, LineConfiguration, ProjLine,
                     ProjPoint, check_problem1_bound, concurrency_point,
                     grid_intersections, normalize_biconcurrent, parse_poly,
                     product_form, roots_of_unity_config, search_green_covers,
                     validate_green_cover, verify_product_dependence)
from gridres.field import is_prime
from gridres.linalg import determinant
from gridres.lines import _multiplicative_subgroup
from gridres.projective import all_lines, all_points, infinity_line, pencil

Q = Field.rationals()
F5 = Field.prime(5)
F7 = Field.prime(7)


def vertical(field, c):
    return ProjLine(field, (field.one, field.zero, -field(c)))  # x = c


def horizontal(field, c):
    return ProjLine(field, (field.zero, field.one, -field(c)))  # y = c


def through_origin(field, s):
    return ProjLine(field, (field(s), -field.one, field.zero))  # y = s*x


def slope_line(field, s, c):
    return ProjLine(field, (field(s), -field.one, field(c)))  # y = s*x + c


def test_grid_intersections_subgroup_example():
    cfg = roots_of_unity_config(F7, 3)
    grid = grid_intersections(cfg.red, cfg.blue)
    subgroup = {F7(1), F7(2), F7(4)}
    expected = {ProjPoint.affine(F7, u * v, v) for u in subgroup for v in subgroup}
    assert set(grid) == expected
    assert len(grid) == 9


def test_grid_intersections_simple_and_errors():
    grid = grid_intersections([vertical(Q, 0)], [horizontal(Q, 0)])
    assert grid == (ProjPoint.affine(Q, 0, 0),)

    # parallel blue meets both parallel reds at the same infinite point
    with pytest.raises(ValueError, match="coincide"):
        grid_intersections([horizontal(Q, 0), horizontal(Q, 1)], [horizontal(Q, 2)])
    with pytest.raises(ValueError, match="both red and blue"):
        grid_intersections([horizontal(Q, 0), horizontal(Q, 1)], [horizontal(Q, 0)])


def test_concurrency_point():
    assert concurrency_point([vertical(Q, 1), vertical(Q, 2), vertical(Q, 4)]) \
        == ProjPoint(Q, (Q(0), Q(1), Q(0)))
    assert concurrency_point([through_origin(Q, 1), through_origin(Q, -1),
                              horizontal(Q, 0)]) == ProjPoint.affine(Q, 0, 0)
    assert concurrency_point([horizontal(Q, 0), horizontal(Q, 1),
                              vertical(Q, 0)]) is None
    with pytest.raises(ValueError):
        concurrency_point([vertical(Q, 1)])


def test_validate_green_cover():
    cfg = roots_of_unity_config(F7, 3)
    ok, diag = validate_green_cover(cfg)
    assert ok
    assert diag["points_per_green"] == (3, 3, 3)
    covered = diag["covered_by_green"]
    # partition groups the grid by x-coordinate
    for line, pts in covered.items():
        xs = {p.coords[0] for p in pts}
        assert len(xs) == 1

    bad = LineConfiguration(F7, cfg.red, cfg.blue, cfg.red)
    ok_bad, diag_bad = validate_green_cover(bad)
    assert not ok_bad
    assert diag_bad["identity_violations"]


def test_slope_configuration_over_f5():
    red = [vertical(F5, c) for c in range(5)]
    blue = [horizontal(F5, c) for c in range(5)]
    green = [slope_line(F5, 1, c) for c in range(5)]
    cfg = LineConfiguration(F5, red, blue, green)
    ok, _ = validate_green_cover(cfg)
    assert ok
    alpha, beta, gamma = verify_product_dependence(cfg)
    assert gamma == F5.one and not alpha.is_zero() and not beta.is_zero()


def test_search_rediscovers_subgroup_greens():
    cfg = roots_of_unity_config(F7, 3)
    covers = search_green_covers(cfg.red, cfg.blue, F7)
    assert tuple(sorted(cfg.green)) in covers


def test_search_single_point_grid():
    red = [vertical(F5, 0)]
    blue = [horizontal(F5, 0)]
    covers = search_green_covers(red, blue, F5)
    # p + 1 lines through the origin minus the red and the blue
    assert len(covers) == 5 + 1 - 2
    for (line,) in covers:
        assert line.contains(ProjPoint.affine(F5, 0, 0))


def test_search_slope_configuration_classes():
    red = [vertical(F5, c) for c in range(5)]
    blue = [horizontal(F5, c) for c in range(5)]
    covers = search_green_covers(red, blue, F5)
    assert len(covers) == 4
    for cover in covers:
        slopes = set()
        for line in cover:
            a, b, _ = map(F5, line.coords)
            assert not b.is_zero() and not a.is_zero()
            slopes.add(-a / b)
        assert len(slopes) == 1  # one parallel class per cover


def brute_force_covers(red, blue, field):
    """Every n-subset of the plane's lines, other than the red, blue and
    infinity lines, that covers the grid."""
    points = frozenset(grid_intersections(red, blue))
    forbidden = set(red) | set(blue) | {infinity_line(field)}
    traces = {l: frozenset(p for p in points if l.contains(p))
              for l in all_lines(field) if l not in forbidden}
    return sorted(tuple(sorted(combo)) for combo in combinations(traces, len(red))
                  if frozenset().union(*(traces[l] for l in combo)) == points)


def test_search_matches_brute_force_oracle():
    F3 = Field.prime(3)
    subgroup = roots_of_unity_config(F7, 3)
    moved = transform(subgroup, random_projective_map(F7, Random(7)))
    cases = [
        ([vertical(F5, 0)], [horizontal(F5, 0)], F5),
        ([vertical(F3, 0), vertical(F3, 1)], [horizontal(F3, 0), horizontal(F3, 1)], F3),
        (subgroup.red, subgroup.blue, F7),
        (moved.red, moved.blue, F7),
        # two grid points at infinity: only the infinity line joins them
        ([horizontal(F5, 0), vertical(F5, 1)], [horizontal(F5, 2), vertical(F5, 0)], F5),
        # one grid point at infinity, covered by y = 2 and x + 2y = 2
        ([horizontal(F5, 0), vertical(F5, 0)],
         [horizontal(F5, 1), ProjLine(F5, (F5(1), F5(1), F5(-2)))], F5),
    ]
    results = [search_green_covers(*case) for case in cases]
    for case, covers in zip(cases, results):
        assert covers == brute_force_covers(*case)
    assert tuple(sorted(moved.green)) in results[3]
    assert results[-1] == [(horizontal(F5, 2), ProjLine(F5, (F5(1), F5(2), F5(-2))))]


def test_pencil_matches_incidence_scan():
    for point in all_points(F5):
        lines = pencil(point)
        assert len(lines) == len(set(lines)) == 6
        assert set(lines) == {l for l in all_lines(F5) if l.contains(point)}


def test_search_rejects_lines_over_another_field():
    cfg = roots_of_unity_config(F7, 3)
    with pytest.raises(FieldMismatchError):
        search_green_covers(cfg.red, cfg.blue, F5)
    with pytest.raises(FieldMismatchError):
        search_green_covers(cfg.red, cfg.blue, Q)


def test_product_form_examples():
    cfg = roots_of_unity_config(F7, 3)
    assert product_form(cfg.red) == parse_poly("y^3 - z^3", F7, 3)
    assert product_form(cfg.blue) == parse_poly("x^3 - y^3", F7, 3)
    assert product_form(cfg.green) == parse_poly("x^3 - z^3", F7, 3)
    assert product_form([vertical(Q, 0)]) == parse_poly("x", Q, 3)


def test_product_dependence_subgroup():
    cfg = roots_of_unity_config(F7, 3)
    assert verify_product_dependence(cfg) == (F7.one, F7.one, F7.one)


def test_product_dependence_two_greens_always_concurrent():
    red = [vertical(Q, c) for c in (0, 1)]
    blue = [horizontal(Q, c) for c in (0, 1)]
    green = [slope_line(Q, 1, 0), slope_line(Q, -1, 1)]  # the two diagonals
    cfg = LineConfiguration(Q, red, blue, green)
    ok, _ = validate_green_cover(cfg)
    assert ok
    alpha, beta, gamma = verify_product_dependence(cfg)
    assert gamma == Q.one and not alpha.is_zero() and not beta.is_zero()


def test_product_dependence_requires_concurrent_greens():
    red = [vertical(Q, c) for c in (0, 1, 2)]
    blue = [horizontal(Q, c) for c in (0, 1, 2)]
    green = [slope_line(Q, 1, 0), slope_line(Q, -1, 2),
             ProjLine(Q, (Q(1), Q(2), Q(-5)))]  # no common point
    cfg = LineConfiguration(Q, red, blue, green)
    with pytest.raises(ValueError, match="not concurrent"):
        verify_product_dependence(cfg)


def test_roots_of_unity_config():
    cfg = roots_of_unity_config(F7, 3)
    assert len(cfg.red) == 3
    cfg_full = roots_of_unity_config(F5, 4)
    assert len(cfg_full.red) == 4
    with pytest.raises(ValueError, match="does not divide"):
        roots_of_unity_config(F7, 5)
    # all three families are concurrent
    for family in (cfg.red, cfg.blue, cfg.green):
        assert concurrency_point(family) is not None


def test_multiplicative_subgroup_matches_oracle():
    for p in filter(is_prime, range(2, 42)):
        field = Field.prime(p)
        for n in range(1, p):
            if (p - 1) % n:
                with pytest.raises(ValueError, match="does not divide"):
                    _multiplicative_subgroup(field, n)
            else:
                oracle = [x for x in field.elements() if x ** n == field.one]
                assert _multiplicative_subgroup(field, n) == oracle, (p, n)


def random_projective_map(field, rng):
    while True:
        m = [[rng.randrange(field.modulus) for _ in range(3)] for _ in range(3)]
        if determinant(m, field.modulus):
            return m


def transform(config, m):
    field = config.field
    def tf(line):
        a, b, c = map(field, line.coords)
        return ProjLine(field, [a * m[0][j] + b * m[1][j] + c * m[2][j]
                                for j in range(3)])
    return LineConfiguration(field,
                             [tf(l) for l in config.red],
                             [tf(l) for l in config.blue],
                             [tf(l) for l in config.green])


def test_normalize_biconcurrent_round_trip():
    base = roots_of_unity_config(F7, 3)
    rng = Random(101)
    for _ in range(5):
        moved = transform(base, random_projective_map(F7, rng))
        normalized, report = normalize_biconcurrent(moved)
        assert report.success
        assert report.u_set == (F7(1), F7(2), F7(4))
        assert report.v_set == report.u_set
        ok, _ = validate_green_cover(normalized)
        assert ok


def test_normalize_errors():
    # non-concurrent reds
    red = [vertical(Q, 0), horizontal(Q, 5), slope_line(Q, 2, 3)]
    blue = [horizontal(Q, c) for c in (0, 1, 2)]
    green = [slope_line(Q, 1, c) for c in (0, 1, 2)]
    with pytest.raises(ValueError):
        normalize_biconcurrent(LineConfiguration(Q, red, blue, green))

    # characteristic divides the family size (slope configuration)
    red5 = [vertical(F5, c) for c in range(5)]
    blue5 = [horizontal(F5, c) for c in range(5)]
    green5 = [slope_line(F5, 1, c) for c in range(5)]
    with pytest.raises(ValueError, match="characteristic"):
        normalize_biconcurrent(LineConfiguration(F5, red5, blue5, green5))


def test_problem1_bound_examples():
    red = [vertical(Q, c) for c in (0, 1, 2)]
    blue = [horizontal(Q, c) for c in (0, 1)]
    excluded = ProjPoint.affine(Q, 0, 0)
    assert check_problem1_bound(red, blue, excluded, Q) == (3, 3, True)

    red1 = [vertical(Q, 0)]
    blue1 = [horizontal(Q, 0)]
    assert check_problem1_bound(red1, blue1, ProjPoint.affine(Q, 0, 0), Q) == (0, 0, True)

    red2 = [vertical(Q, c) for c in (0, 1)]
    blue2 = [horizontal(Q, c) for c in (0, 1)]
    assert check_problem1_bound(red2, blue2, ProjPoint.affine(Q, 0, 0), Q) == (2, 2, True)


def test_problem1_bound_sweep():
    for field in (Q, F5):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                red = [vertical(field, c) for c in range(n)]
                blue = [horizontal(field, c) for c in range(m)]
                grid = grid_intersections(red, blue)
                for excluded in grid:
                    size, bound, holds = check_problem1_bound(red, blue, excluded, field)
                    assert holds, (n, m, excluded, size, bound)


def test_cover_partition_invariant():
    cfg = roots_of_unity_config(F7, 3)
    for cover in search_green_covers(cfg.red, cfg.blue, F7):
        grid = grid_intersections(cfg.red, cfg.blue)
        seen = set()
        for line in cover:
            trace = {p for p in grid if line.contains(p)}
            assert len(trace) == 3
            assert not (trace & seen)
            seen |= trace
        assert seen == set(grid)


def test_dependence_on_every_searched_cover():
    for field, config in ((F7, roots_of_unity_config(F7, 3)),):
        for cover in search_green_covers(config.red, config.blue, field):
            candidate = LineConfiguration(field, config.red, config.blue, cover)
            if concurrency_point(cover) is not None:
                alpha, beta, gamma = verify_product_dependence(candidate)
                assert not alpha.is_zero() and not beta.is_zero()
                assert gamma == field.one
    red5 = [vertical(F5, c) for c in range(5)]
    blue5 = [horizontal(F5, c) for c in range(5)]
    for cover in search_green_covers(red5, blue5, F5):
        candidate = LineConfiguration(F5, red5, blue5, cover)
        assert concurrency_point(cover) is not None
        alpha, beta, gamma = verify_product_dependence(candidate)
        assert not alpha.is_zero() and not beta.is_zero()
