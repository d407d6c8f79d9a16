"""Small exact linear algebra on raw values (no floating point).

Entries are ints in [0, p) over F_p, ints or Fractions over Q; p is the
modulus, or None over Q, as in the grid and residue kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


def _inverse(x, p):
    return pow(x, -1, p) if p else Fraction(1, x)


def determinant(rows: Sequence[Sequence], p):
    """Exact determinant by Gaussian elimination with first-nonzero pivoting."""
    n = len(rows)
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("determinant needs a square matrix")
    det = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = _inverse(m[c][c], p)
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [(a - f * b) % p if p else a - f * b for a, b in zip(m[i], m[c])]
    return det % p if p else det


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of solving M x = b by row reduction.

    determined maps column index to its unique raw value; columns whose
    value depends on a free choice (or that are free themselves) appear in
    undetermined.  residuals holds the right-hand sides of inconsistent
    zero rows (empty iff the system is solvable).
    """

    rank: int
    determined: dict
    undetermined: tuple
    residuals: tuple

    @property
    def consistent(self) -> bool:
        return not self.residuals


def solve_linear(rows: Sequence[Sequence], rhs: Sequence, p) -> LinearSolution:
    """Reduced row echelon solve reporting per-variable determinacy."""
    m = len(rows)
    cols = len(rows[0]) if m else 0
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, m) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = _inverse(aug[r][c], p)
        aug[r] = [v * inv % p if p else v * inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(a - f * b) % p if p else a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    residuals = tuple(aug[i][cols] for i in range(r, m) if aug[i][cols])
    free = [c for c in range(cols) if c not in pivots]
    determined: dict = {}
    undetermined: list[int] = list(free)
    for i, c in enumerate(pivots):
        if not any(aug[i][fc] for fc in free):
            determined[c] = aug[i][cols]
        else:
            undetermined.append(c)
    return LinearSolution(rank=r, determined=determined,
                          undetermined=tuple(sorted(undetermined)),
                          residuals=residuals)
