"""gridres.linalg against brute force: the Leibniz expansion for
determinant, enumeration of F_3^n for solve_linear."""

from fractions import Fraction
from itertools import permutations, product
from random import Random

import pytest

from gridres import Field
from gridres.linalg import determinant, solve_linear

Q = Field.rationals()
F3 = Field.prime(3)
F7 = Field.prime(7)


def leibniz(rows, field):
    """Sum over permutations of sign * product of the chosen entries."""
    n = len(rows)
    total = field.zero
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = field.one if inversions % 2 == 0 else -field.one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def random_matrix(rng, field, n):
    if field == Q:
        return [[Q(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(n)]
                for _ in range(n)]
    # small entries, so zero pivots and row swaps are frequent
    return [[field(rng.choice((0, 0, 1, 2, 6))) for _ in range(n)] for _ in range(n)]


def make_singular(rng, rows, field):
    """Overwrite one row with a combination of the others (or with zeros)."""
    n = len(rows)
    k = rng.randrange(n)
    a, b = field(rng.randint(-2, 2)), field(rng.randint(-2, 2))
    i, j = rng.randrange(n), rng.randrange(n)
    rows[k] = [a * x + b * y if i != k and j != k else field.zero
               for x, y in zip(rows[i], rows[j])]
    return rows


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_determinant_matches_leibniz(field):
    rng = Random(f"determinant-{field}")
    singular = swapped = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        rows = random_matrix(rng, field, n)
        if rng.random() < 0.3:
            rows = make_singular(rng, rows, field)
        expected = leibniz(rows, field)
        assert determinant(rows, field) == expected, rows
        singular += expected.is_zero()
        swapped += rows[0][0].is_zero() and not expected.is_zero()
    # both the singular and the row-swap branches were reached
    assert singular > 50 and swapped > 20


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_determinant_of_permutation_matrix_is_its_sign(field):
    for n in range(1, 5):
        for perm in permutations(range(n)):
            rows = [[field.one if j == perm[i] else field.zero for j in range(n)]
                    for i in range(n)]
            assert determinant(rows, field) == leibniz(rows, field)


def test_determinant_edge_cases():
    assert determinant([], Q) == Q.one
    assert determinant([[Q(0)]], Q) == Q.zero
    with pytest.raises(ValueError, match="square"):
        determinant([[Q(1), Q(2)]], Q)


def value(row, x):
    return sum((a * v for a, v in zip(row, x)), F3.zero)


def test_solve_linear_matches_enumeration_over_f3():
    rng = Random("solve-linear-f3")
    seen = {"consistent": 0, "inconsistent": 0, "determined": 0, "undetermined": 0}
    for _ in range(600):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[F3(rng.randrange(3)) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:  # a repeated row makes dependent systems frequent
            rows[rng.randrange(m)] = list(rows[rng.randrange(m)])
        rhs = [F3(rng.randrange(3)) for _ in range(m)]
        points = [tuple(F3(v) for v in x) for x in product(range(3), repeat=n)]
        solutions = [x for x in points if all(value(r, x) == b for r, b in zip(rows, rhs))]
        kernel = [x for x in points if all(value(r, x).is_zero() for r in rows)]
        # the column c is fixed on every solution iff no kernel vector moves it
        fixed = [c for c in range(n) if all(x[c].is_zero() for x in kernel)]

        result = solve_linear(rows, rhs, F3)
        assert result.consistent == bool(solutions)
        assert 3 ** (n - result.rank) == len(kernel)
        assert sorted(result.determined) == fixed
        assert result.undetermined == tuple(c for c in range(n) if c not in fixed)
        assert all(not r.is_zero() for r in result.residuals)
        assert len(result.residuals) <= m - result.rank
        for c, v in result.determined.items():
            assert all(x[c] == v for x in solutions)
        seen["consistent" if solutions else "inconsistent"] += 1
        seen["determined"] += bool(result.determined)
        seen["undetermined"] += bool(result.undetermined)
    assert min(seen.values()) > 50, seen
