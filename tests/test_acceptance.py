"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS/FAIL line (visible with pytest -s); any
assertion failure downgrades the line to FAIL and fails the test.
"""

import time
from contextlib import contextmanager
from itertools import product
from random import Random

from gridres import (Field, GridSystem, HypersurfaceSystem, MultiPoly,
                     NewtonSystem,
                     check_classical_degree,
                     check_relaxed_support, coefficient_via_grid,
                     default_samples, forced_value, grid_intersections,
                     is_unfolded, min_cover_size, normalize_biconcurrent,
                     parse_poly, residue_sum_over_zeros,
                     roots_of_unity_config, search_green_covers,
                     solve_vertex_coefficients, validate_green_cover,
                     verify_cb, verify_hypersurface_theorem,
                     verify_product_dependence, vertex_residue, vertex_split,
                     weighted_vertex_combination)
from gridres.lines import LineConfiguration, ProjLine, check_problem1_bound
from gridres.polytope import strict_support_direction

from helpers import (product_form, random_bounded_poly, random_element, random_nodes,
                     random_relaxed_poly)

Q = Field.rationals()
F5 = Field.prime(5)
F7 = Field.prime(7)


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_oracle_equivalence():
    with criterion(1, "grid formula equals direct coefficient on 1000 random "
                      "polynomials over F_101, F_10007, and the rationals in < 10 s"):
        rng = Random(20260810)
        fields = [Field.prime(101), Field.prime(10007), Q]
        started = time.perf_counter()
        for i in range(1000):
            field = fields[i % 3]
            n = rng.randint(1, 4)
            sizes = [rng.randint(1, 5) for _ in range(n)]
            grid = GridSystem(field, [random_nodes(rng, field, k) for k in sizes])
            f = random_relaxed_poly(rng, field, grid.target_exponent)
            assert coefficient_via_grid(f, grid) == f.coefficient(grid.target_exponent)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        worked = parse_poly("3*x^2*y + x*y - 2", Q, 2)
        grid = GridSystem(Q, [[0, 1, 2], [0, 1]])
        assert coefficient_via_grid(worked, grid) == Q(3)


def test_criterion_2_relaxed_strictness():
    with criterion(2, "relaxed support admits x^3 + x*y beyond the classical "
                      "bound and rejects x^2*y^2"):
        f = parse_poly("x^3 + x*y", Q, 2)
        target = (1, 1)
        assert check_relaxed_support(f, target)
        assert not check_classical_degree(f, target)
        grid = GridSystem(Q, [[0, 1], [0, 1]])
        assert coefficient_via_grid(f, grid) == Q(1)
        rejected = parse_poly("x^2*y^2", Q, 2)
        assert not check_relaxed_support(rejected, target)
        try:
            coefficient_via_grid(rejected, grid)
        except ValueError:
            pass
        else:
            raise AssertionError("x^2*y^2 was not rejected")


def test_criterion_3_value_dependence():
    with criterion(3, "dependence residual is exactly 0 on 500 random bounded "
                      "polynomials; x^3*y^3 probe gives 9; all-zero forcing gives 0"):
        rng = Random(404)
        fields = [Q, F7]
        for i in range(500):
            field = fields[i % 2]
            n = rng.randint(2, 3)
            sizes = [rng.randint(2, 4) for _ in range(n)]
            bound = sum(sizes) - n - 1
            system = GridSystem(field, [random_nodes(rng, field, k) for k in sizes])
            f = random_bounded_poly(rng, field, n, bound)
            assert verify_cb(f, system).is_zero()
        grid3 = GridSystem(Q, [[0, 1, 2], [0, 1, 2]])
        assert verify_cb(parse_poly("x^3*y^3", Q, 2), grid3) == Q(9)
        for field in (Q, F7):
            for sizes in ((2, 2), (3, 2), (3, 3), (2, 2, 2)):
                nodes = [random_nodes(rng, field, k) for k in sizes]
                system = GridSystem(field, nodes)
                points = list(system.points())
                target = points[-1]
                zeros = {pt: field.zero for pt in points if pt != target}
                assert forced_value(zeros, system, target).is_zero()


def test_criterion_4_cover_bound():
    with criterion(4, "minimum avoiding cover of the 3x2 grid minus a corner "
                      "is exactly 3 in < 1 s; no grid up to 3x3 beats the bound"):
        started = time.perf_counter()
        pts = [(Q(a), Q(b)) for a in (0, 1, 2) for b in (0, 1) if (a, b) != (0, 0)]
        assert min_cover_size(pts, (Q(0), Q(0)), Q) == 3
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        for k1 in (1, 2, 3):
            for k2 in (1, 2, 3):
                grid = [(Q(a), Q(b)) for a in range(k1) for b in range(k2)]
                for excluded in grid:
                    rest = [p for p in grid if p != excluded]
                    assert min_cover_size(rest, excluded, Q) >= k1 + k2 - 2


def _random_shape_system(rng, field, separable):
    n = 2
    if separable:
        sizes = [rng.randint(1, 3) for _ in range(n)]
        sep = GridSystem(field, [random_nodes(rng, field, k) for k in sizes])
        return HypersurfaceSystem(field, sep.polys_multivariate())
    sizes = [rng.randint(1, 2) for _ in range(n)]
    polys = []
    for i, k in enumerate(sizes):
        terms = {tuple(k if j == i else 0 for j in range(n)): field.one}
        for _ in range(rng.randint(0, 4)):
            while True:
                mono = tuple(rng.randint(0, k) for _ in range(n))
                if sum(mono) < k:
                    break
            terms[mono] = random_element(rng, field)
        polys.append(MultiPoly.from_terms(field, n, terms))
    return HypersurfaceSystem(field, polys)


def test_criterion_5_hypersurface():
    with criterion(5, "100 full-intersection systems over F_5/F_7 admit a "
                      "nonvanishing point; the worked system gives values 1,4,3,2"):
        rng = Random(555)
        accepted = 0
        attempts = 0
        while accepted < 100:
            attempts += 1
            assert attempts < 5000, "generation stalled"
            field = (F5, F7)[attempts % 2]
            system = _random_shape_system(rng, field, separable=accepted % 2 == 0)
            sols = system.solutions()
            expected = 1
            for k in system.degrees:
                expected *= k
            if len(sols) != expected:
                continue
            target = tuple(k - 1 for k in system.degrees)
            f = random_bounded_poly(rng, field, 2, sum(system.degrees) - 2)
            terms = dict(f.terms)
            terms[target] = random_element(rng, field, nonzero=True)
            f = MultiPoly.from_terms(field, 2, terms)
            verdict = verify_hypersurface_theorem(system, f)
            assert verdict.witness is not None  # CounterexampleError otherwise
            accepted += 1
        worked = HypersurfaceSystem(F5, [parse_poly("x^2 - 1", F5, 2),
                                         parse_poly("y^2 - x", F5, 2)])
        verdict = verify_hypersurface_theorem(worked, parse_poly("x*y", F5, 2))
        assert len(verdict.solutions) == 4
        values = [str(parse_poly("x*y", F5, 2).evaluate(p)) for p in verdict.solutions]
        assert sorted(values) == ["1", "2", "3", "4"]
        assert set(values) == {"1", "4", "3", "2"}


def test_criterion_6_toric_three_way_agreement():
    with criterion(6, "residue sum = grid coefficient = signed integer vertex "
                      "combination on separable systems; k at the top of "
                      "[0,2] is -1; plus-side vertex residues vanish"):
        rng = Random(666)
        for trial in range(40):
            field = (Q, F7)[trial % 2]
            n = rng.randint(1, 2)
            sizes = [rng.randint(1, 3) for _ in range(n)]
            sep = GridSystem(
                field, [random_nodes(rng, field, k, avoid_zero=True) for k in sizes])
            system = NewtonSystem(sep.polys_multivariate())
            zeros = list(product(*sep.nodes))
            f = random_relaxed_poly(rng, field, sep.target_exponent)
            if f.is_zero():
                continue
            samples = default_samples(system)
            weights = solve_vertex_coefficients(system, zeros, samples)
            assert weights.unconstrained == ()
            assert all(isinstance(k, int) for k in weights.values.values())
            lhs = residue_sum_over_zeros(system, f, zeros)
            direct = coefficient_via_grid(f, sep)
            combo = weighted_vertex_combination(system, f, weights)
            assert lhs == direct == combo
            for sample in samples:
                split = vertex_split(system, sample)
                for v in split.v_plus:
                    u = strict_support_direction(system.sum_polytope, v)
                    assert vertex_residue(system, sample, v, u).is_zero()
        # the worked 1-variable instance
        system1 = NewtonSystem([parse_poly("x^2 - 1", Q, 1)])
        zeros1 = [(Q(1),), (Q(-1),)]
        out = solve_vertex_coefficients(
            system1, zeros1, [parse_poly("1", Q, 1), parse_poly("x", Q, 1)])
        assert out.values == {(2,): -1}
        assert out.unconstrained == ((0,),)


def test_criterion_7_unfolded():
    with criterion(7, "100 random separable systems are unfolded; the diagonal "
                      "segments fail with witness direction (1, -1)"):
        rng = Random(777)
        for _ in range(100):
            n = rng.randint(1, 3)
            sizes = [rng.randint(1, 4) for _ in range(n)]
            sep = GridSystem(
                Q, [random_nodes(rng, Q, k, avoid_zero=True) for k in sizes])
            assert is_unfolded(NewtonSystem(sep.polys_multivariate())) == (True, None)
        diag = parse_poly("1 + x*y", Q, 2)
        flag, witness = is_unfolded(NewtonSystem([diag, diag]))
        assert flag is False and witness == (1, -1)


def test_criterion_8_lines_suite():
    with criterion(8, "subgroup configuration validates with dependence "
                      "(1,1,1), search rediscovers it, the slope configuration "
                      "yields the nonzero-slope pencils, normalization "
                      "round-trips, and the n+m-2 bound holds; all in < 60 s"):
        started = time.perf_counter()

        config = roots_of_unity_config(F7, 3)
        ok, _ = validate_green_cover(config)
        assert ok
        assert product_form(config.red) == parse_poly("y^3 - z^3", F7, 3)
        assert product_form(config.blue) == parse_poly("x^3 - y^3", F7, 3)
        assert product_form(config.green) == parse_poly("x^3 - z^3", F7, 3)
        assert verify_product_dependence(config) == (F7.one, F7.one, F7.one)

        covers = search_green_covers(config.red, config.blue, F7)
        assert tuple(sorted(config.green)) in covers

        def vertical(field, c):
            return ProjLine(field, (field.one, field.zero, -field(c)))

        def horizontal(field, c):
            return ProjLine(field, (field.zero, field.one, -field(c)))

        red5 = [vertical(F5, c) for c in range(5)]
        blue5 = [horizontal(F5, c) for c in range(5)]
        slope_cfg = LineConfiguration(
            F5, red5, blue5,
            [ProjLine(F5, (F5.one, -F5.one, F5(c))) for c in range(5)])
        ok5, _ = validate_green_cover(slope_cfg)
        assert ok5
        covers5 = search_green_covers(red5, blue5, F5)
        assert len(covers5) == 4  # one cover per nonzero slope
        for cover in covers5:
            slopes = {-F5(line.coords[0]) / F5(line.coords[1]) for line in cover}
            assert len(slopes) == 1 and not slopes.pop().is_zero()

        rng = Random(888)
        from gridres.linalg import determinant
        for _ in range(3):
            while True:
                m = [[rng.randrange(7) for _ in range(3)] for _ in range(3)]
                if determinant(m, F7.modulus):
                    break
            def tf(line):
                a, b, c = map(F7, line.coords)
                return ProjLine(F7, [a * m[0][j] + b * m[1][j] + c * m[2][j]
                                     for j in range(3)])
            moved = LineConfiguration(F7, [tf(l) for l in config.red],
                                      [tf(l) for l in config.blue],
                                      [tf(l) for l in config.green])
            _, report = normalize_biconcurrent(moved)
            assert report.success
            assert report.u_set == (F7(1), F7(2), F7(4))

        for field in (F5, Q):
            for n in (1, 2, 3):
                for m_count in (1, 2, 3):
                    red = [vertical(field, c) for c in range(n)]
                    blue = [horizontal(field, c) for c in range(m_count)]
                    grid = grid_intersections(red, blue)
                    for excluded in grid:
                        size, bound, holds = check_problem1_bound(
                            red, blue, excluded, field)
                        assert holds and size == bound

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
