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
Every grid computation is one kernel, _collapse, applied one axis at a
time: it sums the first variable of a raw term map against a table.
Against S_i(e) it takes the weighted sum over axis i; against a^e it
restricts f to z_i = a.  The witness search walks the grid in row-major
order with the second kind, and skips the slab behind a node as soon as
f collapses to zero there.  The weights 1/phi_i'(a) are a raw table too
(grid_weights), so only the final scalar becomes a FieldElement.

Over Q the kernels clear denominators once per axis, so _collapse sees
only ints.  Write the s nodes of an axis as a_j = alpha_j / D with integer
alpha_j and D the lcm of their denominators, P_j = prod over k != j of
(alpha_j - alpha_k), L = lcm |P_j| and W_j = L / P_j; then
1/phi'(a_j) = W_j * D^(s-1) / L.  With E the largest exponent of the axis
in the term map, the integer table T(e) = sum_j W_j alpha_j^e D^(E-e) is
S(e) times D^E L / D^(s-1), and f is scaled by M, the lcm of its
coefficient denominators.  The grid sum is then an integer, and one
division by M and the axis factors gives the single Fraction.  The walk
restricts M f against alpha^e D^(E-e), a positive multiple of a^e, so it
tests the same vanishing.  Over F_p, D = L = 1 and W_j = 1/phi'(a_j).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm, prod
from typing import Iterable, Sequence

from .field import Field, FieldElement, FieldMismatchError
from .multipoly import MultiPoly, vanishing_poly_from_nodes


class GridSystem:
    """Product grid of per-variable node sets, nodes sorted and distinct;
    also the separable system g_i(z_i) = phi_i(z_i) whose zeros it is."""

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

    @property
    def degree_bound(self) -> int:
        """Largest total degree whose values the dependence annihilates."""
        return sum(self.sizes) - self.nvars - 1

    @property
    def polys(self) -> tuple:
        """The univariate g_i, built from the nodes on each read; the
        sums and the dependence need only the per-axis weights."""
        return tuple(vanishing_poly_from_nodes(ns) for ns in self.nodes)

    def polys_multivariate(self) -> tuple:
        """g_i lifted into the full n-variable ring, g_i depending on z_i."""
        n = self.nvars
        return tuple(MultiPoly(self.field, n, {(0,) * i + m + (0,) * (n - i - 1): c
                                               for m, c in g.terms.items()})
                     for i, g in enumerate(self.polys))

    def points(self):
        """Grid points in row-major (lexicographic by sorted nodes) order."""
        return product(*self.nodes)

    def __repr__(self) -> str:
        sets = ", ".join("{" + ", ".join(map(str, ns)) + "}" for ns in self.nodes)
        return f"{type(self).__name__}({self.field!r}, [{sets}])"


def grid_weights(nodes: Sequence[FieldElement]) -> dict:
    """Raw map node value -> 1/phi'(node) for the monic vanishing polynomial
    phi: ints mod p over F_p, Fractions over Q."""
    nodes = list(nodes)
    if not nodes:
        raise ValueError("empty node set")
    if len(set(nodes)) != len(nodes):
        raise ValueError("duplicate nodes")
    p = nodes[0].field.modulus
    d, weights, l = _axis_weights([a.value for a in nodes], p)
    if p:
        return weights
    scale = d ** (len(nodes) - 1)
    return {a: Fraction(w * scale, l) for a, w in weights.items()}


def _clear_denominators(raw: dict, p) -> tuple:
    """(M * raw, M) with M the lcm of the denominators of the values, so
    every value of M * raw is an int; over F_p (raw, 1)."""
    if p:
        return raw, 1
    m = lcm(*(c.denominator for c in raw.values()))
    return {k: c.numerator * (m // c.denominator) for k, c in raw.items()}, m


def _axis_weights(values, p) -> tuple:
    """(D, W, L) for one axis of raw node values, W keyed by node value in
    the given order: 1/phi'(a) = W[a] * D^(s-1) / L with W[a] an int (see
    above)."""
    alphas, d = _clear_denominators(dict(zip(values, values)), p)
    derivs = {a: prod(x - y for y in alphas.values() if y != x) for a, x in alphas.items()}
    if p:
        return 1, {a: pow(q, -1, p) for a, q in derivs.items()}, 1
    l = lcm(*derivs.values())
    return d, {a: l // q for a, q in derivs.items()}, l


def _power_table(a, d: int, exps, p) -> dict:
    """{e: alpha^e D^(E-e)} for the raw node a = alpha / D, e in exps and
    E = max(exps): the powers a^e scaled by D^E, as ints; over F_p
    {e: a^e mod p}."""
    if p:
        return {e: pow(a, e, p) for e in exps}
    alpha = a.numerator * (d // a.denominator)
    top = max(exps, default=0)
    return {e: alpha ** e * d ** (top - e) for e in exps}


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
    return all(m == c or any(d < ci for d, ci in zip(m, c)) for m in f.terms)


def _collapse(terms: dict, table: dict, p) -> dict:
    """Sum the first variable of a raw term map against a raw table.

    Key m goes to m[1:] with weight table[m[0]] (missing is zero), reduced
    mod p (None over Q) with zeros dropped: against a^e this restricts f
    to z_1 = a, against S_i(e) it sums over the first axis.
    """
    out: dict = {}
    for m, c in terms.items():
        t = table.get(m[0])
        if t:
            rest = m[1:]
            out[rest] = out.get(rest, 0) + c * t
    if p:
        return {m: r for m, c in out.items() if (r := c % p)}
    return {m: c for m, c in out.items() if c}


def _weighted_grid_sum(f: MultiPoly, nodes) -> FieldElement:
    """Sum over the grid of f(x) * prod_i 1/phi_i'(x_i), one axis at a time.

    Axis i's table T_i(e) is itself a collapse: the scaled power map
    {(a, e): alpha^e D^(E-e)} summed over a against the integer weights
    W; over Q the result is the int total divided once by M and by
    D^E L / D^(s-1) per axis.
    """
    field = f.field
    p = field.modulus
    terms, den = _clear_denominators(f.terms, p)
    num = 1
    for ns in nodes:
        d, weights, l = _axis_weights([a.value for a in ns], p)
        exps = {m[0] for m in terms}
        powers = {(a, e): t for a in weights for e, t in _power_table(a, d, exps, p).items()}
        sums = _collapse(powers, weights, p)
        terms = _collapse(terms, {e: s for (e,), s in sums.items()}, p)
        num *= d ** (len(ns) - 1)
        den *= l * d ** max(exps, default=0)
    total = terms.get((), 0)
    return field(total if p else Fraction(total * num, den))


def _grid_walk(maps, nodes, p, dead):
    """Grid points in row-major order at which the raw term maps survive.

    At each node a of the next axis every map collapses to its
    restriction there, and the slab behind a is skipped as soon as
    dead(collapsed maps) holds; a leaf, where every map is a constant,
    yields its point unless it is dead.  The walk keeps one frame (maps,
    node iterator, D, exponents) per axis on a list, so its depth is not
    bounded by the recursion limit.  Over Q the maps have int coefficients
    and each node a = alpha / D restricts against alpha^e D^(E-e), which
    scales every restriction by D^E > 0.
    """
    scales = [1 if p else lcm(*(a.value.denominator for a in ns)) for ns in nodes]
    point, stack = [], []
    while True:
        if len(point) == len(nodes):
            yield tuple(point)
        else:
            k = len(point)
            stack.append((maps, iter(nodes[k]), scales[k], {m[0] for g in maps for m in g}))
        # advance to the next surviving node, backing out of exhausted axes
        while stack:
            above, todo, d, exps = stack[-1]
            del point[len(stack) - 1:]
            a = next(todo, None)
            if a is None:
                stack.pop()
                continue
            table = _power_table(a.value, d, exps, p)
            maps = [_collapse(g, table, p) for g in above]
            if not dead(maps):
                point.append(a)
                break
        else:
            return


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
    p = f.field.modulus
    terms, _ = _clear_denominators(f.terms, p)
    return next(_grid_walk([terms], grid.nodes, p, lambda maps: not maps[0]), None)
