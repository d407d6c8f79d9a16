"""Property test: is_unfolded (one direction per face of the sum polytope)
against the candidate-direction oracle, on supports inside random lattice
subspaces, so that lower-dimensional sum polytopes are frequent."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gridres import Field, MultiPoly, NewtonSystem, is_unfolded

from helpers import has_single_top_vertex, unfolded_by_candidates

Q = Field.rationals()

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def subspace_systems(draw, n):
    """n polynomials in n variables whose supports are small translated
    pieces of one lattice subspace spanned by 0..n drawn vectors."""
    vector = st.tuples(*[st.integers(-2, 2)] * n)
    basis = draw(st.lists(vector, max_size=n))
    polys = []
    for _ in range(n):
        offset = draw(vector)
        steps = draw(st.lists(st.tuples(*[st.integers(-1, 2)] * len(basis)),
                              min_size=1, max_size=4))
        support = {tuple(o + sum(c * b[j] for c, b in zip(step, basis))
                         for j, o in enumerate(offset)) for step in steps}
        polys.append(MultiPoly.from_terms(Q, n, dict.fromkeys(support, 1)))
    return NewtonSystem(polys)


@pytest.mark.parametrize("n", [2, 3])
@SETTINGS
@given(data=st.data())
def test_unfolded_matches_candidate_oracle(n, data):
    system = data.draw(subspace_systems(n))
    flag, witness = is_unfolded(system)
    assert flag == unfolded_by_candidates(system)[0]
    if flag:
        assert witness is None
    else:
        # no summand has a single top vertex in the witness direction
        assert not any(has_single_top_vertex(g.terms, witness) for g in system.polys)
