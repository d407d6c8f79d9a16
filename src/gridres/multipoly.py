"""Sparse multivariate Laurent polynomials over an exact field.

A polynomial is a map from integer exponent vectors to raw canonical
coefficients: ints in [1, p) over F_p, nonzero Fractions over Q.  The
ring operations run on those raw values through the kernels below, which
the parser and the toric residues share; FieldElements appear only at
the API (coefficient, evaluate, coerced constructor input and scalar
operands).  Exponents are signed (Laurent terms are first-class) and must
fit a signed 32-bit integer; products are overflow-checked.  Canonical
iteration order is graded lexicographic, so printing and reports are
reproducible.  The zero polynomial is the empty map and has total degree
-1 by convention.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .field import Field, FieldElement, FieldMismatchError

Monomial = tuple  # tuple[int, ...], length = nvars

MAX_EXPONENT = (1 << 31) - 1
MIN_EXPONENT = -(1 << 31)

_SCALARS = (int, Fraction, FieldElement)  # operands coerced through the field


def grade_key(m: Monomial):
    """Graded-lex sort key: total degree first, then lexicographic."""
    return (sum(m), m)


def _check_exponent(e: int) -> int:
    if not MIN_EXPONENT <= e <= MAX_EXPONENT:
        raise OverflowError(f"exponent {e} exceeds signed 32-bit range")
    return e


def monomial_product(a: Monomial, b: Monomial) -> Monomial:
    return tuple(_check_exponent(x + y) for x, y in zip(a, b))


def _in_range(m: Monomial) -> bool:
    return not m or (MIN_EXPONENT <= min(m) and max(m) <= MAX_EXPONENT)


# -- raw kernels ---------------------------------------------------------------
# Term maps hold nonzero raw coefficients; p is the modulus, or None over Q.
# Over Q the parser passes ints as well as Fractions.

def _add_terms(a: dict, b: dict, p) -> dict:
    """a + b, zeros dropped; a's terms keep their order."""
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is not None:
            c += s
            if p:
                c %= p
            if not c:
                del out[m]
                continue
        out[m] = c
    return out


def _mul_terms(a: dict, b: dict, p) -> dict:
    """a * b, term pairs taken in order, zeros dropped.

    An exponent out of the signed 32-bit range raises the OverflowError of
    monomial_product for the first pair that leaves it.
    """
    if len(a) == 1 and len(b) == 1:
        (m1, c1), = a.items()
        (m2, c2), = b.items()
        m = tuple(map(add, m1, m2))
        if not _in_range(m):
            monomial_product(m1, m2)
        c = c1 * c2
        return {m: c % p if p else c}
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            if not _in_range(m):
                monomial_product(m1, m2)
            c = c1 * c2
            s = out.get(m)
            if s is not None:
                c += s
            if p:
                c %= p
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def _eval_terms(terms: dict, point: Sequence, p):
    """Value of a term map at a raw point (Fraction coordinates over Q);
    zero coordinates reject negative powers."""
    total = 0
    for m, c in terms.items():
        for x, e in zip(point, m):
            if e == 0:
                continue
            if e < 0 and not x:
                raise ZeroDivisionError("zero coordinate raised to a negative power")
            c *= pow(x, e, p) if p else x ** e
        total += c
    return total % p if p else total


def _pow_terms(terms: dict, e: int, p, unit: dict) -> dict:
    """terms^e by repeated squaring; unit is the term map of 1.

    A single term is raised directly, and only it takes e < 0.  When its
    exponents leave the 32-bit range the error is the first bad exponent
    (e < 0) or the one repeated squaring of the bare monomial meets (e > 0).
    """
    if len(terms) == 1:
        (m, c), = terms.items()
        expo = tuple(x * e for x in m)
        if _in_range(expo):
            if p:
                return {expo: pow(c, e, p)}
            return {expo: c ** e if e >= 0 else Fraction(c) ** e}
        if e < 0:
            for x in expo:
                _check_exponent(x)
        terms = {m: 1}  # the squaring below raises; only exponents matter
    result = unit
    while e:
        if e & 1:
            result = _mul_terms(result, terms, p)
        e >>= 1
        if e:
            terms = _mul_terms(terms, terms, p)
    return result


class MultiPoly:
    """Immutable sparse polynomial; all ring operations are pure."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms: Mapping[Monomial, object]):
        # terms are assumed clean: correct arity, raw canonical nonzero
        # coefficients (ints mod p, Fractions over Q); use the constructors
        # below for unvalidated data
        self.field = field
        self.nvars = nvars
        self.terms = dict(terms)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "MultiPoly":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: Field, nvars: int, value) -> "MultiPoly":
        c = field(value).value
        if not c:
            return cls.zero(field, nvars)
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field: Field, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        expo = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(field, nvars, {expo: field.one.value})

    @classmethod
    def from_terms(cls, field: Field, nvars: int,
                   terms: Mapping[Monomial, object]) -> "MultiPoly":
        clean: dict = {}
        for m, c in terms.items():
            m = tuple(int(e) for e in m)
            if len(m) != nvars:
                raise ValueError(f"monomial {m} has arity {len(m)}, expected {nvars}")
            for e in m:
                _check_exponent(e)
            coeff = field(c).value
            if coeff:
                clean[m] = coeff
        return cls(field, nvars, clean)

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.field != self.field:
                raise FieldMismatchError(f"mixed fields: {self.field} and {other.field}")
            if other.nvars != self.nvars:
                raise ValueError(f"arity mismatch: {self.nvars} vs {other.nvars}")
            return other
        if isinstance(other, _SCALARS):
            return MultiPoly.constant(self.field, self.nvars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly(self.field, self.nvars,
                         _add_terms(self.terms, other.terms, self.field.modulus))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.modulus
        return MultiPoly(self.field, self.nvars,
                         {m: -c % p if p else -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        p = self.field.modulus
        if isinstance(other, _SCALARS):
            s = self.field(other).value
            if not s:
                return MultiPoly.zero(self.field, self.nvars)
            return MultiPoly(self.field, self.nvars,
                             {m: c * s % p if p else c * s for m, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return MultiPoly(self.field, self.nvars, _mul_terms(self.terms, other.terms, p))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0 and len(self.terms) != 1:
            raise ValueError("negative power of a non-monomial")
        unit = {(0,) * self.nvars: self.field.one.value}
        return MultiPoly(self.field, self.nvars,
                         _pow_terms(self.terms, e, self.field.modulus, unit))

    def __eq__(self, other) -> bool:
        if isinstance(other, _SCALARS):
            other = self._coerce(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.terms == other.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_laurent(self) -> bool:
        """True when some exponent is negative."""
        return any(e < 0 for m in self.terms for e in m)

    def coefficient(self, m: Sequence[int]) -> FieldElement:
        """Coefficient of the monomial as a field element, zero if absent."""
        m = tuple(int(e) for e in m)
        if len(m) != self.nvars:
            raise ValueError(f"monomial {m} has arity {len(m)}, expected {self.nvars}")
        c = self.terms.get(m)
        return self.field.zero if c is None else FieldElement(self.field, c)

    def total_degree(self) -> int:
        """Max exponent sum; -1 for the zero polynomial; Laurent input rejected."""
        if self.is_laurent():
            raise ValueError("total degree undefined for Laurent polynomials")
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def support(self) -> list[Monomial]:
        """Exponent vectors in canonical (graded-lex ascending) order."""
        return sorted(self.terms, key=grade_key)

    def evaluate(self, point: Sequence[FieldElement]) -> FieldElement:
        """Exact value at the point; zero coordinates reject negative powers."""
        field = self.field
        point = [field(x).value for x in point]
        if len(point) != self.nvars:
            raise ValueError(f"point has arity {len(point)}, expected {self.nvars}")
        return field(_eval_terms(self.terms, point, field.modulus))

    def partial_derivative(self, index: int) -> "MultiPoly":
        """Formal derivative in one variable (Laurent terms included)."""
        if not 0 <= index < self.nvars:
            raise IndexError(f"variable index {index} out of range for {self.nvars} variables")
        p = self.field.modulus
        terms: dict = {}
        # m -> m - e_index is injective, so no two terms meet
        for m, c in self.terms.items():
            e = m[index]
            if e == 0:
                continue
            c = c * e % p if p else c * e
            if c:
                terms[m[:index] + (e - 1,) + m[index + 1:]] = c
        return MultiPoly(self.field, self.nvars, terms)

    def shift(self, offset: Sequence[int]) -> "MultiPoly":
        """Multiply by the Laurent monomial with the given exponent vector."""
        offset = tuple(int(e) for e in offset)
        if len(offset) != self.nvars:
            raise ValueError("offset arity mismatch")
        return MultiPoly(self.field, self.nvars,
                         {monomial_product(m, offset): c for m, c in self.terms.items()})

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({self.field!r}, {self.nvars}, {format_poly(self)!r})"


def default_names(nvars: int) -> list[str]:
    if nvars <= 3:
        return ["x", "y", "z"][:nvars]
    return [f"z{i + 1}" for i in range(nvars)]


def format_poly(f: MultiPoly, names: Sequence[str] | None = None) -> str:
    """Canonical text: terms in graded-lex descending order.

    The output reparses (see gridres.expr) to an equal polynomial.
    """
    if names is None:
        names = default_names(f.nvars)
    if len(names) != f.nvars:
        raise ValueError("one name per variable required")
    if f.is_zero():
        return "0"
    pieces = []
    for m in sorted(f.terms, key=grade_key, reverse=True):
        c = f.terms[m]
        sign = "-" if c < 0 else "+"  # only over Q: residues mod p are >= 0
        mag = -c if sign == "-" else c
        factors = []
        for name, e in zip(names, m):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        if not factors:
            factors = [str(mag)]
        elif mag != 1:
            factors.insert(0, str(mag))
        pieces.append((sign, "*".join(factors)))
    head_sign, head = pieces[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def vanishing_poly_from_nodes(nodes: Iterable[FieldElement]) -> MultiPoly:
    """Monic univariate polynomial with the given pairwise-distinct roots."""
    nodes = list(nodes)
    if not nodes:
        raise ValueError("need at least one node")
    field = nodes[0].field
    one = field.one.value
    seen = set()
    terms = {(0,): one}
    for node in nodes:
        a = field(node)
        if a in seen:
            raise ValueError(f"duplicate node {node} (multisets are rejected)")
        seen.add(a)
        # (z - a) with its constant first keeps the exponents ascending
        factor = {(0,): -a.value, (1,): one} if a.value else {(1,): one}
        terms = _mul_terms(terms, factor, field.modulus)
    return MultiPoly(field, 1, terms)
