"""Exact scalar arithmetic over a prime field F_p or the rationals.

A FieldElement, a canonical value tied to a shared Field descriptor, is
the scalar of the API; polynomial terms and projective coordinates hold
the bare values.  Prime-field values are residues in [0, p) with p below
2^31 so products fit a double-width machine integer; rational values are
reduced Fractions with positive denominator.  There is no floating point
anywhere: equality of elements is structural equality of canonical forms.
"""

from __future__ import annotations

from fractions import Fraction
from operator import ge, gt, le, lt
from typing import Iterator

MAX_MODULUS = 1 << 31


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 3_215_031_751."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldMismatchError(ValueError):
    """Operands belong to different field descriptors."""


class Field:
    """Descriptor shared by all elements of one computation.

    Doubles as the element factory: ``Field.prime(7)(3)`` and
    ``Field.rationals()("1/2")`` build canonical elements.
    """

    PRIME = "prime-field"
    RATIONALS = "rationals"

    __slots__ = ("kind", "modulus")

    def __init__(self, kind: str, modulus: int | None = None):
        if kind == Field.PRIME:
            if modulus is None:
                raise ValueError("prime field needs a modulus")
            if not (2 <= modulus < MAX_MODULUS):
                raise ValueError(f"modulus out of range [2, 2^31): {modulus}")
            if not is_prime(modulus):
                raise ValueError(f"modulus not prime: {modulus}")
        elif kind == Field.RATIONALS:
            if modulus is not None:
                raise ValueError("the rationals take no modulus")
        else:
            raise ValueError(f"unknown field kind: {kind!r}")
        self.kind = kind
        self.modulus = modulus

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(cls.PRIME, p)

    @classmethod
    def rationals(cls) -> "Field":
        return cls(cls.RATIONALS)

    @property
    def is_prime_field(self) -> bool:
        return self.kind == Field.PRIME

    def characteristic(self) -> int:
        return self.modulus if self.is_prime_field else 0

    def __call__(self, value) -> "FieldElement":
        """Coerce an int, Fraction, decimal/'a/b' string, or element."""
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise FieldMismatchError(f"element of {value.field} used in {self}")
            return value
        if isinstance(value, str):
            # plain ASCII integers skip the Fraction parser; every other
            # string takes it, so what is accepted does not change
            body = value[1:] if value[:1] == "-" else value
            value = int(value) if body.isascii() and body.isdigit() else Fraction(value)
        if isinstance(value, Fraction) and value.denominator == 1:
            value = value.numerator
        if isinstance(value, int):
            if self.is_prime_field:
                return FieldElement(self, value % self.modulus)
            return FieldElement(self, Fraction(value))
        if isinstance(value, Fraction):
            if self.is_prime_field:
                num = value.numerator % self.modulus
                den = value.denominator % self.modulus
                if den == 0:
                    raise ZeroDivisionError(
                        f"denominator {value.denominator} vanishes mod {self.modulus}")
                return FieldElement(self, num * pow(den, -1, self.modulus) % self.modulus)
            return FieldElement(self, value)
        raise TypeError(f"cannot coerce {value!r} into {self}")

    @property
    def zero(self) -> "FieldElement":
        return self(0)

    @property
    def one(self) -> "FieldElement":
        return self(1)

    def elements(self) -> Iterator["FieldElement"]:
        """All field elements in canonical order (prime fields only)."""
        if not self.is_prime_field:
            raise ValueError("cannot enumerate the rationals")
        for v in range(self.modulus):
            yield FieldElement(self, v)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field)
                and self.kind == other.kind and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.kind, self.modulus))

    def __repr__(self) -> str:
        return f"F_{self.modulus}" if self.is_prime_field else "QQ"


class FieldElement:
    """Immutable canonical scalar; all operations are pure and exact."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        # value is assumed canonical; use Field.__call__ to build from raw data
        self.field = field
        self.value = value

    def _check(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError(
                    f"mixed fields: {self.field} and {other.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field(other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field.is_prime_field:
            return FieldElement(self.field, (self.value + other.value) % self.field.modulus)
        return FieldElement(self.field, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field.is_prime_field:
            return FieldElement(self.field, (self.value - other.value) % self.field.modulus)
        return FieldElement(self.field, self.value - other.value)

    def __rsub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field.is_prime_field:
            return FieldElement(self.field, self.value * other.value % self.field.modulus)
        return FieldElement(self.field, self.value * other.value)

    __rmul__ = __mul__

    def __neg__(self):
        if self.field.is_prime_field:
            return FieldElement(self.field, -self.value % self.field.modulus)
        return FieldElement(self.field, -self.value)

    def inv(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero field element")
        if self.field.is_prime_field:
            return FieldElement(self.field, pow(self.value, -1, self.field.modulus))
        return FieldElement(self.field, 1 / self.value)

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inv() ** (-e)
        if self.field.is_prime_field:
            return FieldElement(self.field, pow(self.value, e, self.field.modulus))
        return FieldElement(self.field, self.value ** e)

    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return ((self.field is other.field or self.field == other.field)
                    and self.value == other.value)
        if isinstance(other, (int, Fraction)):
            return self == self.field(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def _order(self, other, op):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return op(self.value, other.value)

    def __lt__(self, other) -> bool:
        return self._order(other, lt)

    def __le__(self, other) -> bool:
        return self._order(other, le)

    def __gt__(self, other) -> bool:
        return self._order(other, gt)

    def __ge__(self, other) -> bool:
        return self._order(other, ge)

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"{self.field!r}({self.value})"

