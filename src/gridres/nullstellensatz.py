"""The grid coefficient formula and its nonvanishing witnesses.

The central identity: for node sets A_1..A_n with |A_i| = c_i + 1 and a
polynomial f whose monomials other than the target c all drop below c in
some coordinate, the coefficient of x^c equals

    sum over the grid of  f(a_1..a_n) / (phi_1'(a_1) ... phi_n'(a_n)),

where phi_i is the monic polynomial vanishing on A_i.  Everything here is
exact.  The weight is a product of one weight per axis, so the grid sum
factorizes per monomial: with S_i(e) = sum over a in A_i of a^e / phi_i'(a),

    sum_x w(x) f(x) = sum over terms c_m x^m of  c_m * S_1(m_1) ... S_n(m_n).

S_i(0) is the sum of the weights, which is 0 for |A_i| >= 2 and 1 for
|A_i| = 1, so exponent 0 is a table entry like any other, not a factor 1.
The same term kernel evaluates f at a single point, with a_i^e in place
of S_i(e).
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

from .field import Field, FieldElement, FieldMismatchError, batch_inverse
from .multipoly import MultiPoly


class GridSystem:
    """Product grid of per-variable node sets, nodes sorted and distinct."""

    __slots__ = ("field", "nodes", "sizes")

    def __init__(self, field: Field, node_sets: Sequence[Iterable]):
        if not node_sets:
            raise ValueError("need at least one node set")
        nodes = []
        for i, raw in enumerate(node_sets):
            ns = sorted(field(a) for a in raw)
            if not ns:
                raise ValueError(f"node set {i} is empty")
            if len(set(ns)) != len(ns):
                raise ValueError(f"duplicate node in set {i} (multisets are rejected)")
            nodes.append(tuple(ns))
        self.field = field
        self.nodes = tuple(nodes)
        self.sizes = tuple(len(ns) for ns in nodes)

    @property
    def nvars(self) -> int:
        return len(self.nodes)

    @property
    def target_exponent(self) -> tuple:
        """c with c_i = |A_i| - 1: the exponent the grid formula extracts."""
        return tuple(k - 1 for k in self.sizes)

    def points(self):
        """Grid points in row-major (lexicographic by sorted nodes) order."""
        return product(*self.nodes)

    def __repr__(self) -> str:
        sets = ", ".join("{" + ", ".join(map(str, ns)) + "}" for ns in self.nodes)
        return f"{type(self).__name__}({self.field!r}, [{sets}])"


def grid_weights(nodes: Sequence[FieldElement]) -> dict:
    """Map node -> 1/phi'(node) for the monic vanishing polynomial phi."""
    nodes = list(nodes)
    if not nodes:
        raise ValueError("empty node set")
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate nodes")
    field = nodes[0].field
    derivs = []
    for i, a in enumerate(nodes):
        acc = field.one
        for j, b in enumerate(nodes):
            if j != i:
                acc = acc * (a - b)
        derivs.append(acc)
    return dict(zip(nodes, batch_inverse(derivs)))


def check_classical_degree(f: MultiPoly, c: Sequence[int]) -> bool:
    """True iff total degree of f is at most sum(c)."""
    return f.total_degree() <= sum(c)


def check_relaxed_support(f: MultiPoly, c: Sequence[int]) -> bool:
    """True iff every monomial other than c drops below c somewhere.

    This is weaker than the classical degree bound and is the actual
    precondition of the grid formula.
    """
    c = tuple(int(e) for e in c)
    if len(c) != f.nvars:
        raise ValueError(f"target exponent arity {len(c)}, expected {f.nvars}")
    for m in f.terms:
        if m == c:
            continue
        if all(d >= ci for d, ci in zip(m, c)):
            return False
    return True


def _term_sum(f: MultiPoly, tables):
    """Raw sum over the terms c x^m of f of c * prod_i tables[i][m_i].

    tables[i] maps each exponent of variable i in f to a raw value; the
    result is reduced mod p over F_p.  This is the only loop over terms
    that grid computations run.
    """
    p = f.field.modulus
    total = 0
    for m, c in f.terms.items():
        for t, e in zip(tables, m):
            c *= t[e]
        total += c
    return total % p if p else total


def _node_powers(polys, nodes):
    """Per axis, per node: exponent -> node^exponent as raw values.

    The exponents are those of that variable in any of the polynomials.
    """
    p = nodes[0][0].field.modulus
    out = []
    for i, ns in enumerate(nodes):
        exps = {m[i] for g in polys for m in g.terms}
        out.append([{e: pow(a.value, e, p) for e in exps} for a in ns])
    return out


def _weighted_grid_sum(f: MultiPoly, nodes) -> FieldElement:
    """Sum over the grid of f(x) * prod_i 1/phi_i'(x_i).

    One _term_sum call with tables[i][e] = S_i(e), exponent 0 included.
    """
    field = f.field
    tables = []
    for ns, powers in zip(nodes, _node_powers([f], nodes)):
        w = grid_weights(ns)
        tables.append({e: field(sum(w[a].value * t[e] for a, t in zip(ns, powers))).value
                       for e in powers[0]})
    return field(_term_sum(f, tables))


def _grid_point_tables(polys, nodes):
    """(point, tables) for each grid point in row-major order.

    tables[i] maps exponent -> x_i^exponent, so _term_sum(g, tables) is
    the raw value g(point) for each g in polys.
    """
    axes = [list(zip(ns, powers)) for ns, powers in zip(nodes, _node_powers(polys, nodes))]
    for combo in product(*axes):
        point, tables = zip(*combo)
        yield point, tables


def _require_polynomial(f: MultiPoly):
    if f.is_laurent():
        raise ValueError("grid formula requires nonnegative exponents")


def _require_compatible(f: MultiPoly, grid: GridSystem):
    if f.field != grid.field:
        raise FieldMismatchError(f"polynomial over {f.field}, grid over {grid.field}")
    if f.nvars != grid.nvars:
        raise ValueError(f"arity mismatch: polynomial {f.nvars}, grid {grid.nvars}")


def coefficient_via_grid(f: MultiPoly, grid: GridSystem) -> FieldElement:
    """Extract the coefficient at the grid's target exponent by summation.

    Requires the relaxed support condition for the grid's target; the
    result then equals f.coefficient(target) exactly.
    """
    _require_compatible(f, grid)
    _require_polynomial(f)
    c = grid.target_exponent
    if not check_relaxed_support(f, c):
        raise ValueError(
            f"relaxed support condition violated for target exponent {c}")
    return _weighted_grid_sum(f, grid.nodes)


def find_nonvanishing_witness(f: MultiPoly, grid: GridSystem):
    """First grid point (row-major over sorted nodes) where f is nonzero.

    Returns None when f vanishes on the whole grid.  Whenever the grid
    coefficient is nonzero a witness is guaranteed to exist.
    """
    _require_compatible(f, grid)
    _require_polynomial(f)
    if f.is_zero():
        return None
    for point, tables in _grid_point_tables([f], grid.nodes):
        if _term_sum(f, tables):
            return point
    return None
