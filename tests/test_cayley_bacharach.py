from fractions import Fraction
from itertools import product
from math import prod
from random import Random

import pytest

from gridres import (Field, GridSystem, HypersurfaceSystem, MultiPoly,
                     forced_value, grid_weights,
                     min_cover_size, parse_poly, verify_cb,
                     verify_hypersurface_theorem)

from helpers import (pointwise_alpha, pointwise_grid_sum, random_bounded_poly,
                     random_element, random_nodes, random_poly)

Q = Field.rationals()
F5 = Field.prime(5)
F7 = Field.prime(7)


def alpha_from_weights(nodes, x):
    weights = [grid_weights(ns) for ns in nodes]
    field = x[0].field
    out = field.one
    for w, xi in zip(weights, x):
        out = out * field(w[xi.value])
    return out


def test_cb_coefficients_examples():
    nodes = GridSystem(Q, [[0, 1, 2], [0, 1, 2]]).nodes
    alpha = pointwise_alpha(nodes)
    for x, expected in (((Q(1), Q(1)), Q(1)), ((Q(0), Q(0)), Q("1/4"))):
        assert alpha[x] == expected
        assert alpha_from_weights(nodes, x) == expected
    nodes1 = GridSystem(Q, [[0, 1]]).nodes
    alpha1 = pointwise_alpha(nodes1)
    for x, expected in (((Q(0),), Q(-1)), ((Q(1),), Q(1))):
        assert alpha1[x] == expected
        assert alpha_from_weights(nodes1, x) == expected
    with pytest.raises(ValueError, match="duplicate"):
        GridSystem(Q, [[0, 0, 1]])


def test_all_coefficients_nonzero():
    rng = Random(31)
    for field in (Q, F7):
        for _ in range(10):
            n = rng.randint(1, 3)
            sizes = [rng.randint(1, 4) for _ in range(n)]
            system = GridSystem(field, [random_nodes(rng, field, k) for k in sizes])
            alpha = pointwise_alpha(system.nodes)
            assert len(alpha) == prod(sizes)
            for x, a in alpha.items():
                assert not a.is_zero()
                assert a == alpha_from_weights(system.nodes, x)


def test_separable_system_is_a_grid():
    system = GridSystem(F7, [[3, 1], [2]])
    assert isinstance(system, GridSystem)
    assert system.nodes == ((F7(1), F7(3)), (F7(2),))
    assert system.sizes == (2, 1) and system.nvars == 2
    assert system.target_exponent == (1, 0) and system.degree_bound == 0
    assert list(system.points()) == [(F7(1), F7(2)), (F7(3), F7(2))]
    assert [str(g) for g in system.polys] == [str(parse_poly("x^2 + 3*x + 3", F7, 1)),
                                              str(parse_poly("x + 5", F7, 1))]
    assert repr(system) == "GridSystem(F_7, [{1, 3}, {2}])"
    with pytest.raises(AttributeError):
        system.extra = 1


def test_verify_cb_examples():
    system = GridSystem(Q, [[0, 1, 2], [0, 1, 2]])
    assert verify_cb(parse_poly("x + y", Q, 2), system) == Q(0)
    assert verify_cb(parse_poly("x^3*y^3", Q, 2), system) == Q(9)
    assert verify_cb(parse_poly("1", Q, 2), system) == Q(0)
    with pytest.raises(ValueError, match="arity"):
        verify_cb(parse_poly("x", Q, 1), system)
    with pytest.raises(ValueError, match="nonnegative"):
        verify_cb(parse_poly("x^-1", Q, 2), system)


def test_verify_cb_randomized_zero_residual():
    rng = Random(41)
    for field in (Q, F7):
        for _ in range(60):
            n = rng.randint(2, 3)
            sizes = [rng.randint(2, 4) for _ in range(n)]
            bound = sum(sizes) - n - 1
            if bound < 0:
                continue
            system = GridSystem(field, [random_nodes(rng, field, k) for k in sizes])
            f = random_bounded_poly(rng, field, n, bound)
            assert verify_cb(f, system).is_zero()



@pytest.mark.parametrize("field", [Q, F7, Field.prime(101)])
def test_verify_cb_matches_pointwise_oracle(field):
    # degrees up to 6 per variable: most residuals lie beyond the bound and
    # are nonzero; one-node axes have weight sum 1, larger ones weight sum 0
    rng = Random(field.modulus or 1)
    nonzero = 0
    for case in range(40):
        n = rng.randint(1, 4)
        sizes = [rng.randint(1, 5) for _ in range(n)]
        if case % 3 == 0:
            sizes[rng.randrange(n)] = 1
        system = GridSystem(field, [random_nodes(rng, field, k) for k in sizes])
        f = random_poly(rng, field, n, 6, 8)
        residual = verify_cb(f, system)
        assert residual == pointwise_grid_sum(f, system.nodes)
        nonzero += not residual.is_zero()
    assert nonzero >= 20

def test_verify_cb_from_system_matches_relation():
    # the residual is sum alpha_x f(x) with alpha from the derivative oracle
    rng = Random(12)
    for field in (Q, F7):
        for _ in range(10):
            n = rng.randint(1, 3)
            sizes = [rng.randint(1, 4) for _ in range(n)]
            system = GridSystem(field, [random_nodes(rng, field, k) for k in sizes])
            assert system.degree_bound == sum(sizes) - n - 1
            f = random_poly(rng, field, n, 5, 6)
            expected = sum((a * f.evaluate(x) for x, a in pointwise_alpha(system.nodes).items()),
                           field.zero)
            assert verify_cb(f, system) == expected


def test_forced_value_examples():
    system = GridSystem(Q, [[0, 1, 2], [0, 1, 2]])
    target = (Q(2), Q(2))
    zeros = {pt: Q(0) for pt in system.points() if pt != target}
    assert forced_value(zeros, system, target) == Q(0)
    f = parse_poly("x + y", Q, 2)
    values = {pt: f.evaluate(pt) for pt in system.points() if pt != target}
    assert forced_value(values, system, target) == Q(4)

    system1 = GridSystem(Q, [[0, 1]])
    assert forced_value({(Q(0),): Q(5)}, system1, (Q(1),)) == Q(5)
    # raw coordinates and values are coerced into the field
    assert forced_value({(0,): 5}, system1, (1,)) == Q(5)


def test_forced_value_validation():
    system = GridSystem(Q, [[0, 1], [0, 1]])
    target = (Q(1), Q(1))
    with pytest.raises(ValueError, match=r"values missing for 2 grid points, e\.g\. \('0', '1'\)"):
        forced_value({(Q(0), Q(0)): Q(0)}, system, target)
    # the target is never the missing point named, even when it comes first
    with pytest.raises(ValueError, match=r"values missing for 2 grid points, e\.g\. \('0', '1'\)"):
        forced_value({(Q(1), Q(1)): Q(0)}, system, (Q(0), Q(0)))
    bad = {pt: Q(0) for pt in system.points()}
    with pytest.raises(ValueError, match=r"unexpected points in values, e\.g\. \('1', '1'\)"):
        forced_value(bad, system, target)
    off = {pt: Q(0) for pt in system.points() if pt != target}
    off[(Q(5), Q(0))] = Q(1)
    off[(Q(0),)] = Q(1)
    with pytest.raises(ValueError, match=r"unexpected points in values, e\.g\. \('0',\)"):
        forced_value(off, system, target)
    with pytest.raises(ValueError, match="not a grid point"):
        forced_value({}, system, (Q(9), Q(9)))
    with pytest.raises(ValueError, match="not a grid point"):
        forced_value({}, system, (Q(1),))
    # 9 and 2 are the same point of F_7
    system7 = GridSystem(F7, [[0, 2]])
    with pytest.raises(ValueError, match=r"point \('2',\) is given twice"):
        forced_value({(2,): 1, (9,): 1}, system7, (0,))


def test_forced_value_consistency_randomized():
    rng = Random(47)
    for _ in range(20):
        sizes = [rng.randint(2, 4), rng.randint(2, 4)]
        system = GridSystem(Q, [random_nodes(rng, Q, k) for k in sizes])
        points = list(system.points())
        bound = sum(sizes) - 2 - 1
        f = random_bounded_poly(rng, Q, 2, bound)
        target = points[rng.randrange(len(points))]
        values = {pt: f.evaluate(pt) for pt in points if pt != target}
        assert forced_value(values, system, target) == f.evaluate(target)


@pytest.mark.parametrize("field", [Q, F7, Field.prime(101), Field.prime(10007)])
def test_forced_value_matches_pointwise_oracle(field):
    # unconstrained values: the forced value is -sum alpha_x v_x / alpha_t
    rng = Random(7 * (field.modulus or 1) + 5)
    for case in range(30):
        n = rng.randint(1, 4)
        sizes = [rng.randint(1, 4) for _ in range(n)]
        if case % 3 == 0:
            sizes[rng.randrange(n)] = 1
        system = GridSystem(field, [random_nodes(rng, field, k) for k in sizes])
        alpha = pointwise_alpha(system.nodes)
        target = rng.choice(list(alpha))
        values = {x: random_element(rng, field) for x in alpha if x != target}
        expected = -sum((alpha[x] * v for x, v in values.items()), field.zero) / alpha[target]
        assert forced_value(values, system, target) == expected


def test_forced_value_keys_points_by_node():
    system = GridSystem(Q, [[0, "1/2"], [0, 1]])
    with pytest.raises(ValueError, match=r"point \('1/2', '1'\) is given twice"):
        forced_value({(Fraction(1, 2), 1): 1, ("2/4", Q(1)): 2}, system, (0, 0))
    # coordinates written in other forms than the nodes land on the same nodes
    spelled = {("0", "1"): 3, ("2/4", 0): 5, (Q("1/2"), Fraction(2, 2)): 7}
    plain = {(0, 1): 3, (Fraction(1, 2), 0): 5, (Fraction(1, 2), 1): 7}
    assert forced_value(spelled, system, ("0/3", Q(0))) == forced_value(plain, system, (0, 0))
    alpha = pointwise_alpha(system.nodes)
    expected = -sum(alpha[tuple(map(Q, x))] * v for x, v in plain.items()) / alpha[(Q(0), Q(0))]
    assert forced_value(plain, system, (0, 0)) == expected


def test_forced_value_linearity():
    system = GridSystem(Q, [[0, 1, 2], [0, 1]])
    target = (Q(2), Q(1))
    rng = Random(3)
    base = {pt: random_element(rng, Q) for pt in system.points() if pt != target}
    other = {pt: random_element(rng, Q) for pt in system.points() if pt != target}
    combined = {pt: base[pt] + other[pt] for pt in base}
    assert (forced_value(combined, system, target)
            == forced_value(base, system, target) + forced_value(other, system, target))


def test_min_cover_size_examples():
    pts = [(Q(a), Q(b)) for a in (0, 1, 2) for b in (0, 1) if (a, b) != (0, 0)]
    assert min_cover_size(pts, (Q(0), Q(0)), Q) == 3
    pts22 = [(Q(a), Q(b)) for a in (0, 1) for b in (0, 1) if (a, b) != (0, 0)]
    assert min_cover_size(pts22, (Q(0), Q(0)), Q) == 2
    assert min_cover_size([], (Q(0), Q(0)), Q) == 0


def test_min_cover_bound_exhaustive_small_grids():
    for k1 in (1, 2, 3):
        for k2 in (1, 2, 3):
            cols = [Q(a) for a in range(k1)]
            rows = [Q(b) for b in range(k2)]
            for ex in [(a, b) for a in cols for b in rows]:
                pts = [(a, b) for a in cols for b in rows if (a, b) != ex]
                assert min_cover_size(pts, ex, Q) >= k1 + k2 - 2


def test_hypersurface_worked_example():
    system = HypersurfaceSystem(F5, [parse_poly("x^2 - 1", F5, 2),
                                     parse_poly("y^2 - x", F5, 2)])
    verdict = verify_hypersurface_theorem(system, parse_poly("x*y", F5, 2))
    expected = {(F5(1), F5(1)), (F5(1), F5(4)), (F5(4), F5(2)), (F5(4), F5(3))}
    assert set(verdict.solutions) == expected
    assert verdict.hypothesis_ok and verdict.expected_count == 4
    assert verdict.witness == (F5(1), F5(1))
    assert verdict.witness_value == F5(1)
    values = {str(parse_poly("x*y", F5, 2).evaluate(p)) for p in verdict.solutions}
    assert values == {"1", "4", "3", "2"}


def test_hypersurface_shape_validation():
    with pytest.raises(ValueError, match="pure power"):
        HypersurfaceSystem(F5, [parse_poly("x^2 + y^2 - 1", F5, 2),
                                parse_poly("y^2 - x", F5, 2)])
    with pytest.raises(ValueError, match="coefficient"):
        HypersurfaceSystem(F5, [parse_poly("2*x^2 - 1", F5, 2),
                                parse_poly("y^2 - x", F5, 2)])
    with pytest.raises(ValueError, match="prime field"):
        HypersurfaceSystem(Q, [parse_poly("x^2 - 1", Q, 1)])


def test_hypersurface_separable_reduction():
    rng = Random(13)
    for _ in range(10):
        sizes = [rng.randint(1, 3), rng.randint(1, 3)]
        sep = GridSystem(F7, [random_nodes(rng, F7, k) for k in sizes])
        system = HypersurfaceSystem(F7, sep.polys_multivariate())
        target = tuple(k - 1 for k in sizes)
        f = parse_poly("1", F7, 2)
        terms = dict(f.terms)
        terms[target] = F7(1 + rng.randrange(6))
        from gridres import MultiPoly
        f = MultiPoly.from_terms(F7, 2, terms)
        verdict = verify_hypersurface_theorem(system, f)
        assert verdict.hypothesis_ok
        assert verdict.witness is not None


def test_hypersurface_hypothesis_failure_reported():
    # x^2 - 2 has no root in F_5, so the intersection is smaller than 2
    system = HypersurfaceSystem(F5, [parse_poly("x^2 - 2", F5, 2),
                                     parse_poly("y^2 - x", F5, 2)])
    verdict = verify_hypersurface_theorem(system, parse_poly("x*y", F5, 2))
    assert not verdict.hypothesis_ok
    assert verdict.witness is None


@pytest.mark.parametrize("field,n", [(F5, 2), (F5, 3), (F7, 2), (F7, 3)])
def test_solutions_match_pointwise_enumeration(field, n, elem_ops):
    # the last 8 systems are triangular (g_i in z_1..z_i only, so g_1 is
    # univariate): the walk drops every slab where g_1 is a nonzero constant
    rng = Random(10 * field.modulus + n)
    found = [0, 0]
    for case in range(16):
        polys = []
        for i in range(n):
            k = rng.randint(1, 3)
            terms = {tuple(k if j == i else 0 for j in range(n)): 1}
            for _ in range(rng.randint(0, 4)):
                while True:
                    mono = tuple(rng.randint(0, k - 1) if case < 8 or j <= i else 0
                                 for j in range(n))
                    if sum(mono) < k:
                        break
                terms[mono] = random_element(rng, field)
            polys.append(MultiPoly.from_terms(field, n, terms))
        expected = [pt for pt in product(field.elements(), repeat=n)
                    if all(g.evaluate(pt).is_zero() for g in polys)]
        system = HypersurfaceSystem(field, polys)
        elem_ops.clear()
        assert system.solutions() == expected
        assert not elem_ops  # the walk runs on raw residues
        found[case >= 8] += len(expected)
    assert all(found)


@pytest.mark.parametrize("field", [Q, F7, Field.prime(101)])
def test_dependence_does_no_element_arithmetic(field, elem_ops):
    rng = Random(field.modulus or 6)
    for _ in range(20):
        n = rng.randint(1, 3)
        system = GridSystem(field, [random_nodes(rng, field, rng.randint(1, 4))
                                    for _ in range(n)])
        f = random_poly(rng, field, n, 4, 6)
        points = list(system.points())
        target = points[-1]
        values = {pt: random_element(rng, field) for pt in points[:-1]}
        elem_ops.clear()
        verify_cb(f, system)
        assert not elem_ops
        forced_value(values, system, target)
        assert len(elem_ops) <= 3  # the final -v * alpha_t^-1
