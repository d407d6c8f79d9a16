"""Exact scalar arithmetic over a prime field F_p or the rationals.

A FieldElement, a canonical value tied to a shared Field descriptor, is
the scalar of the API; polynomial terms and projective coordinates hold
the bare values.  Prime-field values are residues in [0, p) with p below
2^31 so products fit a double-width machine integer; rational values are
reduced Fractions with positive denominator.  There is no floating point
anywhere: equality of elements is structural equality of canonical forms.

One scalar reader, _read_scalar, turns a decimal or 'a/b' string into its
canonical raw value: ASCII 'a' and 'a/b' by int(), everything else by the
Fraction string parser, so both accept and refuse the same strings.
Field.__call__ wraps it in an element; the job decoder calls it directly
where it needs only the raw value.
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


def _read_scalar(text: str, p):
    """The canonical raw value of a decimal or 'a/b' string: an int in
    [0, p) over F_p, a Fraction over Q (p None).

    An optional '-' and ASCII digits, with an optional '/' and nonzero
    ASCII digits, are read by int(); the fraction is reduced before its
    denominator is checked mod p.  Every other string goes to the
    Fraction string parser, so what is accepted, and every error, is what
    Fraction(text) and the coercion of a Fraction give.
    """
    num, slash, den = text.partition("/")
    body = num[1:] if num[:1] == "-" else num
    if body.isascii() and body.isdigit():
        if not slash:
            n = int(num)
            return n % p if p else Fraction(n)
        if den.isascii() and den.isdigit():
            d = int(den)
            if d:
                return _reduce(Fraction(int(num), d), p)
    return _reduce(Fraction(text), p)


def _reduce(value: Fraction, p):
    """The raw value of a Fraction: itself over Q, the residue over F_p."""
    if not p:
        return value
    den = value.denominator % p
    if not den:
        raise ZeroDivisionError(f"denominator {value.denominator} vanishes mod {p}")
    return value.numerator * pow(den, -1, p) % p


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
        if isinstance(value, str):
            return FieldElement(self, _read_scalar(value, self.modulus))
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise FieldMismatchError(f"element of {value.field} used in {self}")
            return value
        if isinstance(value, int):
            return FieldElement(self, value % self.modulus if self.modulus else Fraction(value))
        if isinstance(value, Fraction):
            return FieldElement(self, _reduce(value, self.modulus))
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

