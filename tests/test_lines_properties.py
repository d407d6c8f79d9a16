"""Property tests: the pencil points that certify `lines-check`'s dependence
detect every nonzero form of degree n, over Q and over F_p with p >= n."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from gridres import Field, MultiPoly, ProjLine
from gridres.lines import _pencil_points

from helpers import product_form

Q = Field.rationals()
FIELDS = [Field.prime(p) for p in (2, 3, 5, 7)] + [Q]

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def forms(draw):
    """A field, a degree n (p = n included) and a nonzero form of degree n:
    a combination of up to three products of n lines (the product oracle).
    Lines are drawn at random or from the pencil lines x = a*z (a < n) and
    z = 0 that carry P_n, so some products vanish on most of it."""
    field = draw(st.sampled_from(FIELDS))
    p = field.modulus
    n = draw(st.integers(1, p if p else 6))
    coord = st.integers(0, p - 1) if p else st.integers(-3, 3)
    random_line = st.tuples(coord, coord, coord).filter(any)
    pencil_line = st.one_of(st.builds(lambda a: (1, 0, -a), st.integers(0, n - 1)),
                            st.just((0, 0, 1)))
    line = st.one_of(random_line, pencil_line, pencil_line)
    form = MultiPoly.zero(field, 3)
    for _ in range(draw(st.integers(1, 3))):
        family = draw(st.lists(line, min_size=n, max_size=n))
        form = form + field(draw(coord)) * product_form([ProjLine(field, t) for t in family])
    assume(not form.is_zero())
    return field, n, form


@SETTINGS
@given(forms())
def test_no_nonzero_form_of_degree_n_vanishes_on_the_pencil_points(case):
    field, n, form = case
    assert any(not form.evaluate(q).is_zero() for q in _pencil_points(n)), (field, n, form)
