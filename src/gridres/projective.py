"""Projective points and lines over an exact field.

Both carriers are homogeneous coordinate triples canonicalized so the
first nonzero coordinate is one; canonical form makes equality, hashing,
and sorting structural.  Working projectively means parallel pencils
(concurrency at infinity) need no special casing anywhere downstream.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .field import Field, FieldElement


def _canonical(field: Field, coords) -> tuple:
    vec = tuple(field(c) for c in coords)
    if len(vec) != 3:
        raise ValueError("homogeneous triples have three coordinates")
    lead = next((c for c in vec if not c.is_zero()), None)
    if lead is None:
        raise ValueError("all-zero homogeneous triple")
    inv = lead.inv()
    return tuple(c * inv for c in vec)


class _Homogeneous:
    __slots__ = ("field", "coords")

    def __init__(self, field: Field, coords):
        self.field = field
        self.coords = _canonical(field, coords)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.coords))

    def __lt__(self, other) -> bool:
        if type(self) is not type(other):
            raise TypeError("cannot order different projective carriers")
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return tuple(c.value for c in self.coords)


class ProjPoint(_Homogeneous):
    """Point (x : y : z); affine points have z = 1 after canonicalization."""

    @classmethod
    def affine(cls, field: Field, x, y) -> "ProjPoint":
        return cls(field, (field(x), field(y), field.one))

    def is_infinite(self) -> bool:
        return self.coords[2].is_zero()

    def __repr__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


class ProjLine(_Homogeneous):
    """Line a*x + b*y + c*z = 0 with canonical (a, b, c)."""

    def contains(self, p: ProjPoint) -> bool:
        acc = self.field.zero
        for a, b in zip(self.coords, p.coords):
            acc = acc + a * b
        return acc.is_zero()

    def __repr__(self) -> str:
        return "[" + " : ".join(str(c) for c in self.coords) + "]"


def _cross(u: Sequence[FieldElement], v: Sequence[FieldElement]) -> tuple:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    if p == q:
        raise ValueError(f"need two distinct points, got {p} twice")
    return ProjLine(p.field, _cross(p.coords, q.coords))


def meet(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    if l1 == l2:
        raise ValueError(f"coincident lines {l1} have no unique meet")
    return ProjPoint(l1.field, _cross(l1.coords, l2.coords))


def infinity_line(field: Field) -> ProjLine:
    return ProjLine(field, (field.zero, field.zero, field.one))


def all_points(field: Field) -> Iterator[ProjPoint]:
    """Every projective point over F_p in canonical order."""
    one = field.one
    for x in field.elements():
        for y in field.elements():
            yield ProjPoint(field, (x, y, one))
    for y in field.elements():
        yield ProjPoint(field, (one, y, field.zero))
    yield ProjPoint(field, (field.zero, one, field.zero))


def all_lines(field: Field) -> Iterator[ProjLine]:
    """Every projective line over F_p (p^2 + p + 1 of them)."""
    one = field.one
    for b in field.elements():
        for c in field.elements():
            yield ProjLine(field, (one, b, c))
    for c in field.elements():
        yield ProjLine(field, (field.zero, one, c))
    yield infinity_line(field)


def pencil(point: ProjPoint) -> list[ProjLine]:
    """Every line through the point over F_p (p + 1 of them)."""
    field = point.field
    lead = next(k for k, c in enumerate(point.coords) if not c.is_zero())
    # the point and the two unit vectors other than its leading one are
    # independent, so the lines joining it to them span the pencil
    u, v = (_cross(point.coords, [field.one if m == k else field.zero for m in range(3)])
            for k in range(3) if k != lead)
    return ([ProjLine(field, [a + t * b for a, b in zip(u, v)]) for t in field.elements()]
            + [ProjLine(field, v)])


def affine_candidate_points(field: Field, avoid: Iterable[ProjPoint]) -> Iterator[ProjPoint]:
    """Deterministic stream of points outside the given finite set.

    Over a prime field this walks all points; over the rationals it walks
    an ever-growing integer grid, so it terminates for any finite avoid set.
    """
    avoid = set(avoid)
    if field.is_prime_field:
        for p in all_points(field):
            if p not in avoid:
                yield p
        return
    bound = 0
    while True:
        for x in range(bound + 1):
            for y in range(bound + 1):
                if max(x, y) == bound:
                    p = ProjPoint.affine(field, x, y)
                    if p not in avoid:
                        yield p
        bound += 1
