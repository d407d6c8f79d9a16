"""gridres.linalg against brute force: the Leibniz expansion for
determinant, enumeration of F_3^n for solve_linear, and A x = b checked
exactly over Q.  Entries are raw values: ints mod p, Fractions over Q."""

from fractions import Fraction
from itertools import permutations, product
from random import Random

import pytest

from gridres import Field
from gridres.linalg import determinant, solve_linear

Q = Field.rationals()
F7 = Field.prime(7)


def leibniz(rows, p):
    """Sum over permutations of sign * product of the chosen entries."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = 1 if inversions % 2 == 0 else -1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total % p if p else total


def random_matrix(rng, field, n):
    if field == Q:
        return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)]
    # small entries, so zero pivots and row swaps are frequent
    return [[rng.choice((0, 0, 1, 2, 6)) for _ in range(n)] for _ in range(n)]


def make_singular(rng, rows, p):
    """Overwrite one row with a combination of the others (or with zeros)."""
    n = len(rows)
    k = rng.randrange(n)
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    i, j = rng.randrange(n), rng.randrange(n)
    rows[k] = [a * x + b * y if i != k and j != k else 0
               for x, y in zip(rows[i], rows[j])]
    if p:
        rows[k] = [x % p for x in rows[k]]
    return rows


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_determinant_matches_leibniz(field):
    rng = Random(f"determinant-{field}")
    p = field.modulus
    singular = swapped = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        rows = random_matrix(rng, field, n)
        if rng.random() < 0.3:
            rows = make_singular(rng, rows, p)
        expected = leibniz(rows, p)
        assert determinant(rows, p) == expected, rows
        singular += expected == 0
        swapped += rows[0][0] == 0 and expected != 0
    # both the singular and the row-swap branches were reached
    assert singular > 50 and swapped > 20


@pytest.mark.parametrize("field", [Q, F7], ids=str)
def test_determinant_of_permutation_matrix_is_its_sign(field):
    for n in range(1, 5):
        for perm in permutations(range(n)):
            rows = [[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)]
            assert determinant(rows, field.modulus) == leibniz(rows, field.modulus)


def test_determinant_edge_cases():
    assert determinant([], None) == 1
    assert determinant([[Fraction(0)]], None) == 0
    with pytest.raises(ValueError, match="square"):
        determinant([[Fraction(1), Fraction(2)]], None)


def value(row, x):
    return sum(a * v for a, v in zip(row, x)) % 3


def test_solve_linear_matches_enumeration_over_f3():
    rng = Random("solve-linear-f3")
    seen = {"consistent": 0, "inconsistent": 0, "determined": 0, "undetermined": 0}
    for _ in range(600):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randrange(3) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:  # a repeated row makes dependent systems frequent
            rows[rng.randrange(m)] = list(rows[rng.randrange(m)])
        rhs = [rng.randrange(3) for _ in range(m)]
        points = list(product(range(3), repeat=n))
        solutions = [x for x in points if all(value(r, x) == b for r, b in zip(rows, rhs))]
        kernel = [x for x in points if all(value(r, x) == 0 for r in rows)]
        # the column c is fixed on every solution iff no kernel vector moves it
        fixed = [c for c in range(n) if all(x[c] == 0 for x in kernel)]

        result = solve_linear(rows, rhs, 3)
        assert result.consistent == bool(solutions)
        assert 3 ** (n - result.rank) == len(kernel)
        assert sorted(result.determined) == fixed
        assert result.undetermined == tuple(c for c in range(n) if c not in fixed)
        assert all(r in (1, 2) for r in result.residuals)
        assert len(result.residuals) <= m - result.rank
        for c, v in result.determined.items():
            assert all(x[c] == v for x in solutions)
        seen["consistent" if solutions else "inconsistent"] += 1
        seen["determined"] += bool(result.determined)
        seen["undetermined"] += bool(result.undetermined)
    assert min(seen.values()) > 50, seen


def test_solve_linear_over_q_square_systems():
    rng = Random("solve-linear-q")
    seen = {"singular": 0, "nonsingular": 0}
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = random_matrix(rng, Q, n)
        if rng.random() < 0.3:
            rows = make_singular(rng, rows, None)
        rhs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        result = solve_linear(rows, rhs, None)
        if leibniz(rows, None):
            assert result.rank == n and result.consistent
            assert result.undetermined == ()
            x = [result.determined[c] for c in range(n)]
            assert [sum(a * v for a, v in zip(row, x)) for row in rows] == rhs
            seen["nonsingular"] += 1
        else:
            assert result.rank < n
            seen["singular"] += 1
    assert min(seen.values()) > 50, seen
