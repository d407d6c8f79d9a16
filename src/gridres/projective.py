"""Projective points and lines over an exact field.

Both carriers store `coords`, the raw canonical homogeneous triple (ints
in [0, p) over F_p, Fractions over Q, first nonzero coordinate one), so
equality, hashing, and sorting are structural.  Joins and meets are raw
cross products, incidence is one raw dot product.  `_scaled` is the one
scaler of raw triples to canonical form, for the constructors and for the
raw joins in `cover` and `lines`; `_canonical` wraps a triple that is
canonical already, so the grid join builds each point once without
rescaling.  Lines through a point come from the two spanning lines of its
pencil, so no library path walks the plane looking for a point.  Working
projectively means parallel pencils (concurrency at infinity) need no
special casing anywhere downstream.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .field import Field, FieldMismatchError
from .polytope import _cross3, _dot


def _scaled(p, vec) -> tuple:
    """A raw triple (p is the modulus, or None over Q) over its first
    nonzero entry."""
    a, b, c = vec
    if p:
        a, b, c = a % p, b % p, c % p
        if a:
            inv = pow(a, -1, p)
            return 1, b * inv % p, c * inv % p
        if b:
            return 0, 1, c * pow(b, -1, p) % p
        if c:
            return 0, 0, 1
    else:
        lead = a or b or c
        if lead:
            if type(lead) is int:  # int / int would be a float
                lead = Fraction(lead)
            return a / lead, b / lead, c / lead
    raise ValueError("all-zero homogeneous triple")


def _same_field(a, b) -> Field:
    if a.field is not b.field and a.field != b.field:
        raise FieldMismatchError(f"mixed fields: {a.field} and {b.field}")
    return a.field


class _Homogeneous:
    __slots__ = ("field", "coords")

    def __init__(self, field: Field, coords):
        # API input (elements, strings, ints, Fractions) is coerced once
        vec = tuple(field(c).value for c in coords)
        if len(vec) != 3:
            raise ValueError("homogeneous triples have three coordinates")
        self.field = field
        self.coords = _scaled(field.modulus, vec)

    @classmethod
    def _raw(cls, field: Field, vec):
        """From a raw triple, which is not coerced."""
        self = object.__new__(cls)
        self.field = field
        self.coords = _scaled(field.modulus, vec)
        return self

    @classmethod
    def _canonical(cls, field: Field, coords: tuple):
        """From a raw triple that is canonical already, kept as it is."""
        self = object.__new__(cls)
        self.field = field
        self.coords = coords
        return self

    def __eq__(self, other) -> bool:
        return (type(self) is type(other) and self.coords == other.coords
                and self.field == other.field)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.coords))

    def __lt__(self, other) -> bool:
        if type(self) is not type(other):
            raise TypeError("cannot order different projective carriers")
        return self.coords < other.coords


class ProjPoint(_Homogeneous):
    """Point (x : y : z); affine points have z = 1 after canonicalization."""

    @classmethod
    def affine(cls, field: Field, x, y) -> "ProjPoint":
        return cls(field, (x, y, 1))

    def __repr__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


class ProjLine(_Homogeneous):
    """Line a*x + b*y + c*z = 0 with canonical (a, b, c)."""

    def contains(self, p: ProjPoint) -> bool:
        modulus = _same_field(self, p).modulus
        dot = _dot(self.coords, p.coords)
        return not (dot % modulus if modulus else dot)

    def __repr__(self) -> str:
        return "[" + " : ".join(str(c) for c in self.coords) + "]"


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    if p == q:
        raise ValueError(f"need two distinct points, got {p} twice")
    return ProjLine._raw(_same_field(p, q), _cross3(p.coords, q.coords))


def meet(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    if l1 == l2:
        raise ValueError(f"coincident lines {l1} have no unique meet")
    return ProjPoint._raw(_same_field(l1, l2), _cross3(l1.coords, l2.coords))


def infinity_line(field: Field) -> ProjLine:
    return ProjLine(field, (0, 0, 1))


def all_lines(field: Field) -> Iterator[ProjLine]:
    """Every projective line over F_p (p^2 + p + 1 of them)."""
    for b in field.elements():
        for c in field.elements():
            yield ProjLine._raw(field, (1, b.value, c.value))
    for c in field.elements():
        yield ProjLine._raw(field, (0, 1, c.value))
    yield infinity_line(field)


def _spanning_lines(point: ProjPoint) -> tuple:
    """Two distinct raw lines u, v through the point, spanning its pencil:
    the point and the two unit vectors other than its leading one are
    independent, so its joins with those two are distinct."""
    lead = next(k for k, c in enumerate(point.coords) if c)
    return tuple(_cross3(point.coords, [int(m == k) for m in range(3)])
                 for k in range(3) if k != lead)


def pencil(point: ProjPoint) -> list[ProjLine]:
    """Every line through the point over F_p (p + 1 of them)."""
    field = point.field
    u, v = _spanning_lines(point)
    return ([ProjLine._raw(field, [a + t.value * b for a, b in zip(u, v)])
             for t in field.elements()]
            + [ProjLine._raw(field, v)])
