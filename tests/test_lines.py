from dataclasses import fields
from fractions import Fraction
from itertools import combinations, permutations, repeat
from random import Random

import pytest

from gridres import (CounterexampleError, Field, FieldMismatchError, LineConfiguration,
                     ProjLine, ProjPoint, check_problem1_bound, concurrency_point,
                     grid_intersections, line_through, normalize_biconcurrent,
                     parse_poly, roots_of_unity_config,
                     search_green_covers, validate_green_cover,
                     verify_product_dependence)
from gridres import lines
from gridres.field import is_prime
from gridres.linalg import determinant
from gridres.lines import _multiplicative_subgroup, _pencil_points
from gridres.projective import all_lines, infinity_line, pencil
from helpers import (affine_candidate_points, all_points, oracle_normalize_biconcurrent,
                     product_form)

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
    """An invertible 3x3 matrix: residues over F_p, small integers over Q."""
    def entry():
        return rng.randrange(field.modulus) if field.modulus else rng.randint(-3, 3)
    while True:
        m = [[entry() for _ in range(3)] for _ in range(3)]
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


def assert_normalization_matches_oracle(config):
    """The same report fields (with their element types) and normalized
    lines as the field-element oracle, or the same exception type and
    message; returns the report or the message."""
    try:
        want_config, want = oracle_normalize_biconcurrent(config)
    except (ValueError, CounterexampleError) as err:
        with pytest.raises(type(err)) as info:
            normalize_biconcurrent(config)
        assert type(info.value) is type(err) and str(info.value) == str(err)
        return str(err)
    got_config, got = normalize_biconcurrent(config)
    for name in (f.name for f in fields(got)):
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b) and a == b, name
        if isinstance(a, tuple):
            assert [(type(x), type(x.value), x.field) for x in a] == \
                [(type(x), type(x.value), x.field) for x in b], name
    for name in ("red", "blue", "green"):
        a, b = getattr(got_config, name), getattr(want_config, name)
        assert a == b, name
        assert [tuple(map(type, l.coords)) for l in a] == [tuple(map(type, l.coords)) for l in b]
    return got


def family_permutations(config):
    families = (config.red, config.blue, config.green)
    return [LineConfiguration(config.field, *(families[i] for i in order))
            for order in permutations(range(3))]


def forged(field, red, blue, green):
    """A configuration whose cached cover validation claims success, to
    reach the checks that no valid cover we know of fails."""
    config = LineConfiguration(field, red, blue, green)
    config._validation = True, {}
    return config


@pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (5, 4), (7, 2), (7, 3), (7, 6),
                                  (11, 5), (11, 10), (13, 3), (13, 12)])
def test_normalization_of_subgroup_images_matches_oracle(p, n):
    field = Field.prime(p)
    base = roots_of_unity_config(field, n)
    rng = Random(p * 100 + n)
    for config in [base] + [transform(base, random_projective_map(field, rng))
                            for _ in range(2)]:
        for permuted in family_permutations(config):
            report = assert_normalization_matches_oracle(permuted)
            assert report.success, (p, n)


def arithmetic_grid(field, n, rng):
    start, step = (field(rng.randint(-4, 4)) for _ in range(2))
    while step.is_zero():
        step = field(rng.randint(1, 4))
    nodes = [start + step * k for k in range(n)]
    return [vertical(field, c) for c in nodes], [horizontal(field, c) for c in nodes]


def outcome(result):
    """A report's success, or an error message without its points and lines."""
    if isinstance(result, str):
        return result.split(": ")[0].split(" at (")[0]
    return result.success


def test_normalization_of_arithmetic_grids_matches_oracle():
    """Progression grids have covers for n = 2 and n = p - 1 only (n = 3 over
    Q has none); each cover is checked as found, with one green swapped for
    another line through one of its points, and under a projective map."""
    rng = Random(18)
    outcomes = set()
    for field, sizes in ((F5, (2, 4)), (F7, (2, 6)), (Field.prime(11), (2, 10)),
                         (Q, (2, 3))):
        for n in sizes:
            red, blue = arithmetic_grid(field, n, rng)
            grid = grid_intersections(red, blue)
            for green in search_green_covers(red, blue, field):
                point = next(q for q in grid if green[-1].contains(q))
                swapped = green[:-1] + (next(
                    line for line in map(line_through, repeat(point),
                                         affine_candidate_points(field, [point]))
                    if line not in red + blue + list(green)),)
                m = random_projective_map(field, rng)
                for kind, greens in (("concurrent", green), ("broken", swapped)):
                    config = LineConfiguration(field, red, blue, greens)
                    for moved in (config, transform(config, m)):
                        for permuted in family_permutations(moved):
                            outcomes.add((kind, outcome(
                                assert_normalization_matches_oracle(permuted))))
    # greens forming one parallel class of the whole plane: char | n
    for p in (3, 5):
        field = Field.prime(p)
        red = [vertical(field, c) for c in range(p)]
        blue = [horizontal(field, c) for c in range(p)]
        green = [slope_line(field, 1, c) for c in range(p)]
        config = transform(LineConfiguration(field, red, blue, green),
                           random_projective_map(field, rng))
        outcomes.add(("parallel", outcome(assert_normalization_matches_oracle(config))))
    # parallel greens over Q cover only three of the four grid points
    red = [vertical(Q, c) for c in (0, 1)]
    blue = [horizontal(Q, c) for c in (0, 1)]
    config = LineConfiguration(Q, red, blue, [slope_line(Q, 1, 0), slope_line(Q, 1, 1)])
    outcomes.add(("parallel", outcome(assert_normalization_matches_oracle(config))))
    assert outcomes == {
        ("concurrent", True), ("broken", "not a valid green cover"),
        ("broken", "intersections coincide"),  # a swapped green made red or blue
        ("parallel", "family size 3 shares a factor with the characteristic 3"),
        ("parallel", "family size 5 shares a factor with the characteristic 5"),
        ("parallel", "not a valid green cover")}


def random_forged_config(field, n, rng):
    """Reds x = u, blues y = v and greens through the centroid of the
    nodes with distinct slopes, moved by a random projective map."""
    def draw():
        if field.is_prime_field:
            return field(rng.randrange(field.modulus))
        return field(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))

    def distinct():
        values = set()
        while len(values) < n:
            values.add(draw())
        return sorted(values)

    us, vs, slopes = distinct(), distinct(), distinct()
    cu, cv = sum(us, field.zero) / n, sum(vs, field.zero) / n
    base = LineConfiguration(field, [vertical(field, u) for u in us],
                             [horizontal(field, v) for v in vs],
                             [slope_line(field, s, cv - s * cu) for s in slopes])
    moved = transform(base, random_projective_map(field, rng))
    return forged(field, moved.red, moved.blue, moved.green)


def test_normalization_of_forged_pencils_matches_oracle():
    """Random node sets, not subgroups, through the whole normalization."""
    rng = Random(1818)
    reports = []
    for field in (Q, Field.prime(7), Field.prime(13), Field.prime(10007)):
        for _ in range(25):
            n = rng.randint(2, 5)
            reports.append(assert_normalization_matches_oracle(
                random_forged_config(field, n, rng)))
    # some draw a zero slope, whose green runs through the blue center
    assert sum(not isinstance(r, str) for r in reports) > 60


def test_normalization_error_paths_match_oracle():
    F3 = Field.prime(3)
    subgroup = roots_of_unity_config(F7, 3)
    # a valid cover over F_5 whose reds alone are concurrent
    r5, b5, g5 = ([ProjLine(F5, c) for c in family] for family in (
        [(1, 0, 1), (1, 0, 4), (1, 0, 0)], [(1, 4, 4), (1, 4, 1), (1, 1, 0)],
        [(0, 1, 0), (1, 3, 2), (1, 3, 3)]))
    assert validate_green_cover(LineConfiguration(F5, r5, b5, g5))[0]
    red2 = [vertical(Q, c) for c in (0, 1)]
    blue2 = [horizontal(Q, c) for c in (0, 1)]
    cases = {
        "normalization needs at least two lines per family":
            LineConfiguration(F5, [vertical(F5, 0)], [horizontal(F5, 0)],
                              [through_origin(F5, 1)]),
        "normalization needs equally sized families":
            LineConfiguration(F7, subgroup.red, subgroup.blue, subgroup.green[:2]),
        "family size 3 shares a factor with the characteristic 3":
            LineConfiguration(F3, [vertical(F3, c) for c in range(3)],
                              [horizontal(F3, c) for c in range(3)],
                              [slope_line(F3, 1, c) for c in range(3)]),
        "not a valid green cover: ":
            LineConfiguration(F7, subgroup.red, subgroup.blue, subgroup.red),
        "red lines are not concurrent": LineConfiguration(F5, g5, r5, b5),
        "green lines are not concurrent": LineConfiguration(F5, r5, b5, g5),
        # no valid cover we found has exactly two concurrent families
        "blue lines are not concurrent (required to reach the axis-pencil normal form)":
            forged(Q, [vertical(Q, c) for c in (0, 1, 2)],
                   [horizontal(Q, 0), horizontal(Q, 1), slope_line(Q, 1, 5)],
                   [through_origin(Q, s) for s in (1, 2, 3)]),
        # a shared center makes every red meet every blue there
        "intersections coincide at (0 : 0 : 1)":
            LineConfiguration(Q, [through_origin(Q, 1), through_origin(Q, 2)],
                              [through_origin(Q, 3), through_origin(Q, 4)], red2),
        "red and blue pencils share their center":
            forged(Q, [through_origin(Q, 1), through_origin(Q, 2)],
                   [through_origin(Q, 3), through_origin(Q, 4)], red2),
        "green line misses the origin after centering":
            forged(Q, red2, blue2, [slope_line(Q, 1, 1), slope_line(Q, -1, 1)]),
        # the red line at infinity holds the blue center
        "red line failed to normalize: [0 : 0 : 1]":
            forged(Q, [vertical(Q, 0), infinity_line(Q)], blue2,
                   [through_origin(Q, 1), through_origin(Q, -1)]),
        "blue line failed to normalize: [0 : 0 : 1]":
            forged(Q, red2, [horizontal(Q, 0), infinity_line(Q)],
                   [through_origin(Q, 1), through_origin(Q, -1)]),
        "green line failed to normalize: [1 : 0 : -2]":
            forged(Q, red2, blue2, [vertical(Q, 2), vertical(Q, 3)]),
    }
    for message, config in cases.items():
        assert assert_normalization_matches_oracle(config).startswith(message), message
    # a forged cover on nodes that are no subgroup gets a negative report
    skewed = forged(Q, [vertical(Q, c) for c in (0, 1, 3)],
                    [horizontal(Q, c) for c in (0, 1, 3)],
                    [slope_line(Q, s, Fraction(4, 3) - s * Fraction(4, 3)) for s in (1, 2, 3)])
    report = assert_normalization_matches_oracle(skewed)
    assert report.u_set == (Q("-5/4"), Q("1/4"), Q(1))
    assert not report.is_subgroup and not report.success


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


def assert_dependence_matches_oracle(config):
    """The certified scalars satisfy alpha*R + beta*B = gamma*G on the
    expanded products, with gamma = 1 and alpha, beta nonzero."""
    alpha, beta, gamma = verify_product_dependence(config)
    big_r, big_b, big_g = (product_form(f) for f in (config.red, config.blue, config.green))
    assert alpha * big_r + beta * big_b == gamma * big_g
    assert gamma == config.field.one and not alpha.is_zero() and not beta.is_zero()
    # canonical raw values: ints in [0, p) over F_p, Fractions over Q
    p = config.field.modulus
    for x in (alpha, beta):
        assert type(x.value) is (int if p else Fraction) and (not p or 0 <= x.value < p)


def test_dependence_matches_product_oracle_on_every_concurrent_cover():
    """p = n included: F_2 and F_3 with n = p, F_5 with n = 5, the F_7
    subgroup grid and its projective images, and progression grids over Q."""
    rng = Random(22)
    subgroup = roots_of_unity_config(F7, 3)
    grids = [([vertical(field, c) for c in range(n)], [horizontal(field, c) for c in range(n)],
              field) for field, n in ((Field.prime(2), 2), (Field.prime(3), 3), (F5, 5))]
    grids += [(config.red, config.blue, F7) for config in
              [subgroup] + [transform(subgroup, random_projective_map(F7, rng)) for _ in range(3)]]
    grids += [(*arithmetic_grid(Q, 2, rng), Q) for _ in range(4)]
    for red, blue, field in grids:
        concurrent = [cover for cover in search_green_covers(red, blue, field)
                      if concurrency_point(cover) is not None]
        assert concurrent, (field, red)
        for cover in concurrent:
            assert_dependence_matches_oracle(LineConfiguration(field, red, blue, cover))


def test_pencil_points_lie_on_n_plus_one_lines_of_a_pencil():
    for field, n in ((Field.prime(2), 2), (F5, 3), (F5, 5), (Q, 4)):
        points = [ProjPoint(field, q) for q in _pencil_points(n)]
        # n points off the center on each of the n + 1 lines, and the center
        assert len(set(points)) == len(points) == n * (n + 1) + 1
        center = ProjPoint(field, (0, 1, 0))
        rays = [ProjLine(field, (1, 0, -a)) for a in range(n)] + [infinity_line(field)]
        assert len(set(rays)) == n + 1
        for ray in rays:
            assert ray.contains(center)
            assert sum(ray.contains(q) for q in points) == n + 1


def test_dependence_rejects_greens_that_miss_the_grid(monkeypatch):
    """With validation forced to pass, concurrent greens x = a that are not
    the subgroup {1, 2, 4} fail the pencil check, and the expanded products
    confirm that no gamma fits."""
    monkeypatch.setattr(lines, "validate_green_cover", lambda config: (True, {}))
    base = roots_of_unity_config(F7, 3)
    big_r, big_b = product_form(base.red), product_form(base.blue)
    # alpha = B(c), beta = -R(c) at the common point c = (0 : 1 : 0)
    alpha, beta = (F7(-1), F7(-1))
    assert verify_product_dependence(base) == (F7.one, F7.one, F7.one)
    rejected = 0
    for nodes in combinations(range(7), 3):
        if nodes == (1, 2, 4):
            continue
        green = [vertical(F7, a) for a in nodes]
        config = LineConfiguration(F7, base.red, base.blue, green)
        with pytest.raises(CounterexampleError, match="failed on the pencil points"):
            verify_product_dependence(config)
        big_g = product_form(green)
        assert all(alpha * big_r + beta * big_b != gamma * big_g for gamma in F7.elements())
        rejected += 1
    assert rejected == 34


def test_dependence_needs_p_at_least_n(monkeypatch):
    """Three concurrent greens over F_2 cannot cover a 3 x 3 grid; with
    validation forced to pass, the guard says so."""
    monkeypatch.setattr(lines, "validate_green_cover", lambda config: (True, {}))
    F2 = Field.prime(2)
    families = [pencil(ProjPoint(F2, center)) for center in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    config = LineConfiguration(F2, *families)
    assert config.n == 3 and concurrency_point(config.green) is not None
    with pytest.raises(CounterexampleError, match="cannot cover 9 grid points"):
        verify_product_dependence(config)
