"""Small exact linear algebra over a Field (no floating point)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .field import Field, FieldElement


def determinant(rows: Sequence[Sequence[FieldElement]], field: Field) -> FieldElement:
    """Exact determinant by Gaussian elimination with first-nonzero pivoting."""
    n = len(rows)
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("determinant needs a square matrix")
    det = field.one
    for c in range(n):
        pivot = next((i for i in range(c, n) if not m[i][c].is_zero()), None)
        if pivot is None:
            return field.zero
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c]
        inv = m[c][c].inv()
        for i in range(c + 1, n):
            if m[i][c].is_zero():
                continue
            f = m[i][c] * inv
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of solving M x = b by row reduction.

    determined maps column index to its unique value; columns whose value
    depends on a free choice (or that are free themselves) appear in
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


def solve_linear(rows: Sequence[Sequence[FieldElement]], rhs: Sequence[FieldElement],
                 field: Field) -> LinearSolution:
    """Reduced row echelon solve reporting per-variable determinacy."""
    m = len(rows)
    cols = len(rows[0]) if m else 0
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, m) if not aug[i][c].is_zero()), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][c].inv()
        aug[r] = [v * inv for v in aug[r]]
        for i in range(m):
            if i != r and not aug[i][c].is_zero():
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    residuals = tuple(aug[i][cols] for i in range(r, m) if not aug[i][cols].is_zero())
    free = [c for c in range(cols) if c not in pivots]
    determined: dict[int, FieldElement] = {}
    undetermined: list[int] = list(free)
    for i, c in enumerate(pivots):
        if all(aug[i][fc].is_zero() for fc in free):
            determined[c] = aug[i][cols]
        else:
            undetermined.append(c)
    return LinearSolution(rank=r, determined=determined,
                          undetermined=tuple(sorted(undetermined)),
                          residuals=residuals)
