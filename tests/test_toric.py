import re
from itertools import product
from random import Random

import pytest

from gridres import (BudgetExceededError, Field, FieldMismatchError, MultiPoly,
                     NewtonSystem, GridSystem,
                     SimpleZeros, check_relaxed_support, coefficient_via_grid,
                     default_samples, is_unfolded, parse_poly, residue_sum_over_zeros,
                     solve_vertex_coefficients, vertex_residue, vertex_split,
                     weighted_vertex_combination)

from gridres import toric
from gridres.polytope import strict_support_direction
from gridres.toric import _vertex_residues

from helpers import (oracle_shift, oracle_vertex_residue, pointwise_grid_sum, random_element,
                     random_laurent_poly, random_nodes, random_poly, random_relaxed_poly)

Q = Field.rationals()
F7 = Field.prime(7)
F10007 = Field.prime(10007)


def separable_system(field, node_sets):
    sep = GridSystem(field, node_sets)
    system = NewtonSystem(sep.polys_multivariate())
    zeros = list(product(*sep.nodes))
    return sep, system, zeros


def test_unfolded_examples():
    g = parse_poly("x^2 - 1", Q, 1)
    assert is_unfolded(NewtonSystem([g])) == (True, None)

    diag = parse_poly("1 + x*y", Q, 2)
    flag, witness = is_unfolded(NewtonSystem([diag, diag]))
    assert not flag
    assert witness == (1, -1)

    _, system, _ = separable_system(Q, [[1, 2], [1, 2, 3]])
    assert is_unfolded(system) == (True, None)


def test_unfolded_separable_randomized():
    rng = Random(19)
    for _ in range(30):
        n = rng.randint(1, 3)
        sizes = [rng.randint(1, 4) for _ in range(n)]
        _, system, _ = separable_system(
            Q, [random_nodes(rng, Q, k, avoid_zero=True) for k in sizes])
        assert is_unfolded(system) == (True, None)


def test_unfolded_dimension_cap():
    g = parse_poly("z1*z2*z3*z4 + 1", Q, 4)
    system = NewtonSystem([g, g, g, g])
    with pytest.raises(ValueError, match="dimension"):
        is_unfolded(system)
    with pytest.raises(ValueError, match="dimension"):
        system.sum_polytope.maximal_face_directions()


def test_vertex_split_examples():
    system = NewtonSystem([parse_poly("x^2 - 1", Q, 1)])
    split = vertex_split(system, parse_poly("x", Q, 1))
    assert split.v_zero == ((2,),) and split.v_plus == ((0,),)
    split1 = vertex_split(system, parse_poly("1", Q, 1))
    assert split1.v_zero == () and set(split1.v_plus) == {(0,), (2,)}

    _, sys2, _ = separable_system(Q, [[1, 2, 3], [1, 2]])
    target = parse_poly("x^2*y", Q, 2)
    split2 = vertex_split(sys2, target)
    assert (3, 2) in split2.v_zero


def test_vertex_split_assumption_violation():
    system = NewtonSystem([parse_poly("x^2 - 1", Q, 1)])
    with pytest.raises(ValueError, match="assumption violated"):
        vertex_split(system, parse_poly("x^5", Q, 1))


def test_vertex_residue_examples():
    system = NewtonSystem([parse_poly("x^2 - 1", Q, 1)])
    assert vertex_residue(system, parse_poly("x", Q, 1), (2,), (1,)) == Q(1)
    assert vertex_residue(system, parse_poly("1", Q, 1), (2,), (1,)) == Q(0)

    # scaled leading coefficient divides the result
    scaled = NewtonSystem([parse_poly("3*x^2 - 1", Q, 1)])
    assert vertex_residue(scaled, parse_poly("x", Q, 1), (2,), (1,)) == Q("1/3")


def test_vertex_residue_error_cases():
    system = NewtonSystem([parse_poly("x^2 - 1", Q, 1)])
    f = parse_poly("x", Q, 1)
    with pytest.raises(ValueError, match="not the sum-polytope vertex"):
        vertex_residue(system, f, (1,), (1,))
    with pytest.raises(ValueError, match="nonzero integer vector"):
        vertex_residue(system, f, (2,), (0,))
    with pytest.raises(ValueError, match="zero numerator"):
        vertex_residue(system, MultiPoly.zero(Q, 1), (2,), (1,))
    # a numerator of another field or arity
    with pytest.raises(FieldMismatchError, match="numerator field"):
        vertex_residue(system, parse_poly("x", F7, 1), (2,), (1,))
    with pytest.raises(ValueError, match="numerator arity"):
        residue_sum_over_zeros(system, parse_poly("x", Q, 2), [(Q(1),), (Q(-1),)])
    # a direction that supports no single monomial of g
    sys2 = NewtonSystem([parse_poly("x + y", Q, 2), parse_poly("x - y + 1", Q, 2)])
    with pytest.raises(ValueError, match="strictly support"):
        vertex_residue(sys2, parse_poly("1", Q, 2), (1, 1), (1, 1))


def test_vertex_residue_direction_independence():
    _, system, _ = separable_system(Q, [[1, 2, 3], [1, 2]])
    f = parse_poly("x^2*y + x - 5", Q, 2)
    for vertex, dirs in {
        (3, 2): [(1, 1), (1, 2), (3, 1)],
        (0, 0): [(-1, -1), (-2, -1)],
        (3, 0): [(1, -1), (2, -3)],
        (0, 2): [(-1, 1), (-3, 2)],
    }.items():
        values = {vertex_residue(system, f, vertex, u) for u in dirs}
        assert len(values) == 1


def test_residue_sum_examples():
    system = NewtonSystem([parse_poly("x^2 - 1", Q, 1)])
    x = parse_poly("x", Q, 1)
    zeros = [(Q(1),), (Q(-1),)]
    assert residue_sum_over_zeros(system, x, zeros) == Q(1)

    sep, sys2, zeros2 = separable_system(Q, [[1, 2], [1, 3]])
    f = parse_poly("x*y - 2", Q, 2)
    assert residue_sum_over_zeros(sys2, f, zeros2) == coefficient_via_grid(f, sep)

    with pytest.raises(ValueError, match="not a zero"):
        residue_sum_over_zeros(system, x, [(Q(3),)])
    with pytest.raises(ValueError, match="zero coordinate"):
        residue_sum_over_zeros(system, x, [(Q(0),)])


def test_residue_sum_singular_jacobian():
    system = NewtonSystem([parse_poly("(x - 1)^2", Q, 1)])
    with pytest.raises(ValueError, match="singular"):
        residue_sum_over_zeros(system, parse_poly("x", Q, 1), [(Q(1),)])


def test_simple_zeros_checked_once_and_tied_to_their_system():
    sep, system, points = separable_system(Q, [[1, 2], [1, 3]])
    zeros = SimpleZeros(system, points)
    samples = default_samples(system)
    assert (solve_vertex_coefficients(system, zeros, samples)
            == solve_vertex_coefficients(system, points, samples))
    checked = zeros.weighted
    f = parse_poly("x*y - 2", Q, 2)
    assert residue_sum_over_zeros(system, f, zeros) == coefficient_via_grid(f, sep)
    assert zeros.weighted is checked

    other = NewtonSystem(sep.polys_multivariate())
    with pytest.raises(ValueError, match="another system"):
        residue_sum_over_zeros(other, f, zeros)
    # nothing is checked until a residue sum needs the zeros
    bad = SimpleZeros(system, [(Q(1), Q(1)), (Q(1), Q(1))])
    with pytest.raises(ValueError, match="repeated zero"):
        residue_sum_over_zeros(system, f, bad)


def _jacobian_weight(polys, point):
    """1/det J at point, from the Jacobian's entries evaluated as field
    elements and a Leibniz expansion of the determinant."""
    from itertools import permutations
    n = len(polys)
    jac = [[g.partial_derivative(j).evaluate(point) for j in range(n)] for g in polys]
    det = point[0].field.zero
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = point[0].field.one
        for i, j in enumerate(perm):
            term = term * jac[i][j]
        det = det - term if inversions % 2 else det + term
    return det.inv()


@pytest.mark.parametrize("field", [Q, F7, F10007], ids=str)
def test_grid_zeros_weights_match_jacobian_oracle(field):
    """SimpleZeros.of_grid reads each weight off the per-axis grid weights;
    it must be 1/det J of the separable system at that point, in row-major
    order, as the system route computes it too."""
    rng = Random(f"grid-weights-{field}")
    for _ in range(12):
        nvars = rng.randint(1, 3)
        nodes = [random_nodes(rng, field, rng.randint(1, 4), avoid_zero=True)
                 for _ in range(nvars)]
        grid = GridSystem(field, nodes)
        zeros = SimpleZeros.of_grid(grid)
        assert zeros.system.polys == grid.polys_multivariate()
        points = list(grid.points())
        expected = [(tuple(a.value for a in pt), _jacobian_weight(zeros.system.polys, pt).value)
                    for pt in points]
        assert zeros.weighted == expected
        assert SimpleZeros(zeros.system, points).weighted == expected


def test_grid_zeros_stay_in_the_torus():
    zeros = SimpleZeros.of_grid(GridSystem(Q, [[1, 2], [0, 3]]))
    with pytest.raises(ValueError, match="node set 1 contains 0"):
        zeros.weighted


def random_grid(rng, field):
    """A grid of one to three axes of one to four nonzero nodes."""
    return GridSystem(field, [random_nodes(rng, field, rng.randint(1, 4), avoid_zero=True)
                              for _ in range(rng.randint(1, 3))])


@pytest.mark.parametrize("field", [F7, F10007, Q], ids=str)
def test_grid_zero_residue_sums_match_pointwise_oracle(field):
    """Over grid zeros a residue sum is the grid kernel's weighted sum: it
    equals the pointwise grid sum for the default samples z^(v - 1),
    Laurent numerators and polynomials outside the relaxed support
    condition alike."""
    rng = Random(f"grid-residues-{field}")
    kinds = set()
    for _ in range(15):
        grid = random_grid(rng, field)
        zeros = SimpleZeros.of_grid(grid)
        n = grid.nvars
        for f in default_samples(zeros.system) + [random_laurent_poly(rng, field, n),
                                                  random_poly(rng, field, n, 6, 5)]:
            if f.is_laurent():
                kinds.add("laurent")
            elif not check_relaxed_support(f, grid.target_exponent):
                kinds.add("outside")
            assert residue_sum_over_zeros(zeros.system, f, zeros) == \
                pointwise_grid_sum(f, grid.nodes), (grid, f)
    assert kinds == {"laurent", "outside"}
    # the torus is checked before a sum
    zeros = SimpleZeros.of_grid(GridSystem(field, [[1, 2], [0, 3]]))
    with pytest.raises(ValueError, match="node set 1 contains 0"):
        residue_sum_over_zeros(zeros.system, parse_poly("x^-1", field, 2), zeros)


@pytest.mark.parametrize("field", [F7, F10007, Q], ids=str)
def test_grid_zero_vertex_systems_match_pointwise_oracle(field, monkeypatch):
    """The right-hand sides solve_vertex_coefficients builds over grid
    zeros are the pointwise grid sums of its samples, which carry negative
    exponents, and the weights equal those over the same zeros given as
    points."""
    rhs = []
    original = toric.solve_linear

    def captured(rows, b, p):
        rhs.append(list(b))
        return original(rows, b, p)
    monkeypatch.setattr(toric, "solve_linear", captured)
    rng = Random(f"grid-vertex-systems-{field}")
    for _ in range(10):
        grid = random_grid(rng, field)
        zeros = SimpleZeros.of_grid(grid)
        default = default_samples(zeros.system)
        scaled = [s * random_element(rng, field, nonzero=True) for s in reversed(default)]
        for samples in (default, scaled):
            assert any(s.is_laurent() for s in samples)
            rhs.clear()
            got = solve_vertex_coefficients(zeros.system, zeros, samples)
            assert rhs == [[pointwise_grid_sum(s, grid.nodes).value for s in samples]]
            assert got == solve_vertex_coefficients(zeros.system, list(grid.points()), samples)


def test_solve_vertex_coefficients_worked():
    system = NewtonSystem([parse_poly("x^2 - 1", Q, 1)])
    zeros = [(Q(1),), (Q(-1),)]
    samples = [parse_poly("1", Q, 1), parse_poly("x", Q, 1)]
    out = solve_vertex_coefficients(system, zeros, samples)
    assert out.values == {(2,): -1}
    assert out.unconstrained == ((0,),)
    with pytest.raises(ValueError, match="underdetermined"):
        solve_vertex_coefficients(system, zeros, [])


def test_default_samples_pin_all_vertices():
    _, system, zeros = separable_system(Q, [[1, 2], [1, 3]])
    out = solve_vertex_coefficients(system, zeros, default_samples(system))
    assert out.unconstrained == ()
    assert set(out.values) == set(system.sum_polytope.vertices)
    assert out.values[(2, 2)] == 1  # (-1)^n at the top corner for n = 2
    assert out.anomalies == ()


def test_three_way_agreement_randomized():
    rng = Random(29)
    for field in (Q, F7):
        for _ in range(8):
            n = rng.randint(1, 2)
            sizes = [rng.randint(1, 3) for _ in range(n)]
            sep, system, zeros = separable_system(
                field, [random_nodes(rng, field, k, avoid_zero=True) for k in sizes])
            f = random_relaxed_poly(rng, field, sep.target_exponent)
            if f.is_zero():
                continue
            weights = solve_vertex_coefficients(system, zeros, default_samples(system))
            lhs = residue_sum_over_zeros(system, f, zeros)
            rhs = weighted_vertex_combination(system, f, weights)
            direct = coefficient_via_grid(f, sep)
            assert lhs == direct == rhs


def test_v_plus_residues_vanish():
    rng = Random(37)
    for _ in range(6):
        n = rng.randint(1, 2)
        sizes = [rng.randint(1, 3) for _ in range(n)]
        _, system, _ = separable_system(
            Q, [random_nodes(rng, Q, k, avoid_zero=True) for k in sizes])
        from gridres.polytope import strict_support_direction
        for sample in default_samples(system):
            split = vertex_split(system, sample)
            for v in split.v_plus:
                u = strict_support_direction(system.sum_polytope, v)
                assert vertex_residue(system, sample, v, u).is_zero()


def _violates(system, u):
    return not any(p.face_in_direction(u).is_vertex_polytope()
                   for p in system.polytopes)


def test_unfolded_against_direction_sweep():
    """Brute-force every small integer direction as an independent check."""
    rng = Random(61)
    sweep2 = [(a, b) for a in range(-8, 9) for b in range(-8, 9) if (a, b) != (0, 0)]
    disagreements = 0
    for _ in range(60):
        polys = []
        for _ in range(2):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                terms[(rng.randint(-2, 2), rng.randint(-2, 2))] = Q(1)
            polys.append(MultiPoly.from_terms(Q, 2, terms))
        if any(p.is_zero() for p in polys):
            continue
        system = NewtonSystem(polys)
        flag, witness = is_unfolded(system)
        if flag:
            assert not any(_violates(system, u) for u in sweep2)
        else:
            assert _violates(system, witness)
            disagreements += 1
    assert disagreements > 5  # the sweep must have exercised both outcomes


def test_unfolded_sweep_3d():
    rng = Random(67)
    sweep3 = [(a, b, c) for a in range(-4, 5) for b in range(-4, 5)
              for c in range(-4, 5) if (a, b, c) != (0, 0, 0)]
    both = {True: 0, False: 0}
    for _ in range(25):
        polys = []
        for _ in range(3):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                terms[(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))] = Q(1)
            polys.append(MultiPoly.from_terms(Q, 3, terms))
        system = NewtonSystem(polys)
        flag, witness = is_unfolded(system)
        both[flag] += 1
        if flag:
            assert not any(_violates(system, u) for u in sweep3)
        else:
            assert _violates(system, witness)
    assert both[True] > 0 and both[False] > 0


def test_toric_identity_with_laurent_numerators():
    rng = Random(71)
    for _ in range(10):
        n = rng.randint(1, 2)
        sizes = [rng.randint(1, 3) for _ in range(n)]
        _, system, zeros = separable_system(
            Q, [random_nodes(rng, Q, k, avoid_zero=True) for k in sizes])
        weights = solve_vertex_coefficients(system, zeros, default_samples(system))
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[tuple(rng.randint(-2, 3) for _ in range(n))] = Q(rng.randint(1, 5))
        f = MultiPoly.from_terms(Q, n, terms)
        lhs = residue_sum_over_zeros(system, f, zeros)
        rhs = weighted_vertex_combination(system, f, weights)
        assert lhs == rhs


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_toric_pipeline_does_no_element_arithmetic(field, elem_ops):
    rng = Random(f"toric-raw-{field}")
    diag = parse_poly("1 + x*y", field, 2)
    folded = NewtonSystem([diag, diag])
    for _ in range(8):
        n = rng.randint(1, 3)
        sizes = [rng.randint(1, 3) for _ in range(n)]
        sep, system, zeros = separable_system(
            field, [random_nodes(rng, field, k, avoid_zero=True) for k in sizes])
        f = random_relaxed_poly(rng, field, sep.target_exponent)
        if f.is_zero():
            continue
        samples = default_samples(system)
        elem_ops.clear()
        assert is_unfolded(system) == (True, None)
        assert is_unfolded(folded) == (False, (1, -1))
        weights = solve_vertex_coefficients(system, zeros, samples)
        lhs = residue_sum_over_zeros(system, f, zeros)
        rhs = weighted_vertex_combination(system, f, weights)
        assert not elem_ops
        assert lhs == rhs == coefficient_via_grid(f, sep)


def _bound(f, vertex, u):
    """The truncation bound of f at the vertex: the largest u-weight on the
    support of f * z^{(1,...,1) - v}."""
    return max(sum(a * (m_i + 1 - v_i) for a, m_i, v_i in zip(u, m, vertex)) for m in f.terms)


def _random_unfolded_system(rng, field):
    """A translated grid system or a random unfolded Laurent system."""
    n = rng.randint(1, 3)
    if rng.random() < 0.5:
        sizes = [rng.randint(1, 3) for _ in range(n)]
        polys = GridSystem(field, [random_nodes(rng, field, k, avoid_zero=True)
                                   for k in sizes]).polys_multivariate()
        return NewtonSystem([MultiPoly.from_terms(field, n, oracle_shift(
            g.terms, tuple(rng.randint(-2, 2) for _ in range(n)))) for g in polys])
    while True:
        polys = [MultiPoly.from_terms(field, n, {
            tuple(rng.randint(-1, 2) for _ in range(n)): random_element(rng, field, nonzero=True)
            for _ in range(rng.randint(2, 3))}) for _ in range(n)]
        if all(len(g.terms) > 1 for g in polys):
            system = NewtonSystem(polys)
            if is_unfolded(system)[0]:
                return system


@pytest.mark.parametrize("field", [Q, F10007], ids=str)
def test_batched_vertex_residues_match_oracle(field):
    """One expansion per vertex, read by a batch of numerators, against an
    expansion per numerator at its own depth: the batches mix depths up to
    4, numerators whose bound is negative (rows that read 0) and Laurent
    terms."""
    rng = Random(f"batched-residues-{field}")
    mixed = zero_rows = laurent = 0
    for _ in range(12):
        system = _random_unfolded_system(rng, field)
        n = system.nvars
        total = system.sum_polytope
        for v in total.vertices:
            u = strict_support_direction(total, v)
            batch = [MultiPoly.from_terms(field, n, {tuple(c - 1 for c in w): 1})
                     for w in total.vertices]
            for _ in range(4):
                terms = {}
                for _ in range(rng.randint(1, 5)):
                    m = tuple(rng.randint(-3, 4) for _ in range(n))
                    if _bound(MultiPoly.from_terms(field, n, {m: 1}), v, u) <= 4:
                        terms[m] = random_element(rng, field, nonzero=True)
                if terms:
                    batch.append(MultiPoly.from_terms(field, n, terms))
            bounds = [_bound(f, v, u) for f in batch]
            mixed += len({b for b in bounds if b >= 0}) > 1 and max(bounds) > 0
            zero_rows += min(bounds) < 0
            laurent += any(min(m) < 0 for f in batch for m in f.terms)
            got = _vertex_residues(system, batch, v, u)
            assert got == [oracle_vertex_residue(system, f, v, u).value for f in batch]
            assert [vertex_residue(system, f, v, u) for f in batch] == [field(x) for x in got]
    assert mixed > 10 and zero_rows > 10 and laurent > 10


def test_custom_sample_past_depth_zero():
    """x^3 passes the split of the 3 x 3 grid only through the LP direction
    at (2, 0); under that vertex's own direction its bound is 1, so the
    solve expands that vertex's series to depth 1."""
    sep, system, zeros = separable_system(Q, [[1, 2], [1, 3]])
    sample = parse_poly("x^3", Q, 2)
    u = strict_support_direction(system.sum_polytope, (2, 0))
    assert _bound(sample, (2, 0), u) == 1
    assert vertex_split(system, sample).v_zero == ()
    default = solve_vertex_coefficients(system, zeros, default_samples(system))
    with_sample = solve_vertex_coefficients(system, zeros, default_samples(system) + [sample])
    assert with_sample == default
    assert vertex_residue(system, sample, (2, 0), u) == oracle_vertex_residue(system, sample, (2, 0), u)


def test_first_error_order():
    """With several faults the solve raises what a sample-by-sample solve
    raised: the first sample's split and field, then the zeros, then the
    later samples' split and field.  Messages recorded on the
    sample-by-sample solve."""
    sep, system, good = separable_system(Q, [[1, 2], [1, 3]])
    bad = good[:-1] + [(Q(1), Q(2))]
    samples = default_samples(system)
    violator = parse_poly("x^3*y^3", Q, 2)
    zero = MultiPoly.zero(Q, 2)
    other = parse_poly("x", F7, 2)
    not_a_zero = re.escape("point ('1', '2') is not a zero of g_2")
    violated = re.escape("support halfspace assumption violated at vertex (2, 2)")
    cases = [
        (bad, [samples[0], violator] + samples[1:], ValueError, not_a_zero),
        (bad, [violator] + samples, ValueError, violated),
        (good, samples[:2] + [zero] + samples[2:], ValueError,
         "zero numerator has no support polytope"),
        (bad, samples[:1] + [zero] + samples[1:], ValueError, not_a_zero),
        (bad, [zero] + samples, ValueError, "zero numerator has no support polytope"),
        (good, samples[:2] + [other] + samples[2:], FieldMismatchError,
         "numerator field differs from system field"),
        (bad, [other] + samples, FieldMismatchError, "numerator field differs"),
        (bad, samples[:1] + [other] + samples[1:], ValueError, not_a_zero),
        (good, [other, violator] + samples, FieldMismatchError, "numerator field differs"),
        (good, [samples[0], violator, other] + samples, ValueError, violated),
    ]
    for zeros, given, error, message in cases:
        with pytest.raises(error, match=message):
            solve_vertex_coefficients(system, zeros, given)
    weights = solve_vertex_coefficients(system, good, samples)
    with pytest.raises(ValueError, match="zero numerator: truncation bound undefined"):
        weighted_vertex_combination(system, zero, weights)
    with pytest.raises(FieldMismatchError, match="numerator field differs"):
        weighted_vertex_combination(system, other, weights)
    with pytest.raises(ValueError, match="numerator arity differs from system arity"):
        weighted_vertex_combination(system, parse_poly("x*y*z", Q, 3), weights)


def test_combination_reads_the_shared_directions(monkeypatch):
    """The split, the solve and the combination read one direction map,
    derived on the first read; the combination makes no vertex_residue call."""
    sep, system, zeros = separable_system(Q, [[1, 2], [1, 3]])
    weights = solve_vertex_coefficients(system, zeros, default_samples(system))
    directions = system.vertex_directions
    assert list(directions) == list(system.sum_polytope.vertices)

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(toric, "vertex_residue", refuse)
    monkeypatch.setattr(toric, "strict_support_direction", refuse)
    f = parse_poly("x*y - 2", Q, 2)
    assert weighted_vertex_combination(system, f, weights) == coefficient_via_grid(f, sep)
    assert vertex_split(system, parse_poly("x*y", Q, 2)).v_zero == ((2, 2),)
    assert system.vertex_directions is directions


def test_vertex_series_spends_the_budget():
    """A vertex expansion spends one unit per term pair a product multiplies
    and per term a partial series sum holds.  The deepest expansion of
    x*y^12 + 1 on nodes {1, 2} x {1, 3} spends 534 units, so a budget of
    534 gives the unbounded answer and 533 stops; the default samples need
    depth 0 and spend nothing."""
    _, system, zeros = separable_system(Q, [[1, 2], [1, 3]])
    weights = solve_vertex_coefficients(system, zeros, default_samples(system))
    assert solve_vertex_coefficients(system, zeros, default_samples(system),
                                     budget=0) == weights
    f = parse_poly("x*y^12 + 1", Q, 2)
    expected = weighted_vertex_combination(system, f, weights)
    assert weighted_vertex_combination(system, f, weights, budget=534) == expected
    with pytest.raises(BudgetExceededError) as err:
        weighted_vertex_combination(system, f, weights, budget=533)
    assert (err.value.nodes, err.value.best) == (533, None)
