import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest

from gridres import FieldElement

ELEM_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__rmul__", "__truediv__", "__rtruediv__", "inv", "__pow__")


@pytest.fixture
def elem_ops(monkeypatch):
    """The number of FieldElement arithmetic calls made so far."""
    calls = []
    for name in ELEM_OPS:
        def counted(*args, _op=getattr(FieldElement, name)):
            calls.append(1)
            return _op(*args)
        monkeypatch.setattr(FieldElement, name, counted)
    return calls
