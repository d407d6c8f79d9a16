"""Outside-in tracing of the gridres modules.

The tracer replaces public functions and methods of every gridres module
with wrappers, in every module namespace that binds them, and restores
the originals on ``uninstall``.  The library is not modified.  A layer is
the module that defines the function.  A tracer works in one of two modes,
run as separate passes so that the cost of one does not land in the other:

* ``spans``: each wrapped call opens a span (name, start, end, parent span,
  job); functions called so often that a wrapper would swamp what it
  measures (COUNTED, ITEMS, FieldElement arithmetic) are left unwrapped.
* ``counts``: every public function is wrapped by a counter of calls and
  errors.  Counts that describe work (grid points, LP solves, lines
  scanned, ...) are computed from the arguments and results of the calls.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
from collections import Counter
from math import prod
from time import perf_counter

LAYERS = ("cli", "expr", "field", "multipoly", "nullstellensatz", "cayley_bacharach",
          "polytope", "toric", "linalg", "projective", "lines", "cover")

# Called more than about 1e4 times in one pass of some workload (up to 9e5 for
# Field.__call__ and ProjLine.contains): counted, never spanned.
COUNTED = {
    "field.Field.__call__", "multipoly.MultiPoly.__init__",
    "multipoly.MultiPoly.evaluate", "multipoly.MultiPoly.__mul__",
    "multipoly.MultiPoly.__rmul__", "multipoly.MultiPoly.constant",
    "multipoly.MultiPoly.variable", "multipoly.monomial_product",
    "polytope.primitive", "polytope.sign_normalized",
    "polytope.LatticePolytope.face_in_direction",
    "polytope.LatticePolytope.is_vertex_polytope", "toric.face_in_direction",
    "projective.ProjLine.contains", "projective.meet",
}
# FieldElement arithmetic: + - * / inv pow, counted as field.elem_ops.
ELEM_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__rmul__", "__truediv__", "__rtruediv__", "inv", "__pow__")
# Generator functions: the items drawn are counted; a span would only time creation.
ITEMS = {"field.Field.elements": "field.elements_enumerated",
         "projective.all_lines": "projective.lines_enumerated",
         "projective.all_points": "projective.points_enumerated",
         "projective.affine_candidate_points": "projective.candidate_points",
         "nullstellensatz.GridSystem.points": "nullstellensatz.points_iterated"}


def _grid_work(counts, f, sizes, scanned=None):
    points = prod(sizes) if scanned is None else scanned
    if f.is_zero():
        points = 0
    counts["nullstellensatz.grid_points"] += points
    counts["nullstellensatz.term_evals"] += points * len(f.terms)


def _witness_work(counts, args, result):
    f, grid = args[0], args[1]
    if result is None:
        _grid_work(counts, f, grid.sizes)
        return
    # row-major index of the witness, plus one
    index = 0
    for nodes, x in zip(grid.nodes, result):
        index = index * len(nodes) + nodes.index(x)
    _grid_work(counts, f, grid.sizes, index + 1)


def _hull_work(counts, args, result):
    counts["polytope.hull_points_in"] += len(result.points)
    counts["polytope.hull_vertices_out"] += len(result.vertices)


# Work counts taken from the arguments and result of one wrapped call.
HOOKS = {
    "expr.parse_poly": lambda c, a, r: c.update({"expr.terms_out": len(r.terms)}),
    "nullstellensatz.coefficient_via_grid":
        lambda c, a, r: _grid_work(c, a[0], a[1].sizes),
    "nullstellensatz.find_nonvanishing_witness": _witness_work,
    "cayley_bacharach.verify_cb": lambda c, a, r: _grid_work(c, a[0], a[1].sizes),
    "cayley_bacharach.cb_coefficients":
        lambda c, a, r: c.update({"cayley_bacharach.relation_points": len(r.points)}),
    "cayley_bacharach.HypersurfaceSystem.solutions":
        lambda c, a, r: c.update({"cayley_bacharach.enumerated_points":
                                  a[0].field.modulus ** a[0].nvars}),
    "polytope.LatticePolytope.from_points": _hull_work,
    "lines.search_green_covers": lambda c, a, r: c.update({"lines.covers_found": len(r)}),
    "cover.candidate_traces": lambda c, a, r: c.update({"cover.candidate_traces": len(r)}),
}
# Call counts reported under their own names.
CALL_NAMES = {
    "field.batch_inverse": "field.batch_inverse.calls",
    "multipoly.MultiPoly.evaluate": "multipoly.evaluate.calls",
    "multipoly.MultiPoly.__mul__": "multipoly.mul.calls",
    "multipoly.MultiPoly.__rmul__": "multipoly.mul.calls",
    "polytope.solve_nonnegative": "polytope.lp_solves",
    "toric.vertex_residue": "toric.vertex_residue.calls",
    "linalg.solve_linear": "linalg.solve_linear.calls",
    "linalg.determinant": "linalg.determinant.calls",
    "projective.ProjLine.contains": "projective.incidence_tests",
}


class Tracer:
    """Spans or counters of traced jobs; install, run a job, uninstall."""

    def __init__(self, mode="spans"):
        assert mode in ("spans", "counts"), mode
        self.mode = mode
        self.spans: list[list] = []   # [name, layer, start, end, parent, job]
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.wrapped: dict[str, object] = {}  # qualified name -> original

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, layer, fn):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, layer, perf_counter(), 0.0,
                      stack[-1] if stack else -1, tracer.job]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
        return wrapper

    def _counter(self, name, layer, fn, key=None):
        calls, errors, counts = self.calls, self.errors, self.counts
        key = key or CALL_NAMES.get(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            if key:
                counts[key] += 1
            if hook:
                hook(counts, args, result)
            return result
        return wrapper

    def _items(self, name, layer, fn):
        calls, counts, key = self.calls, self.counts, ITEMS[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item
        return wrapper

    def _wrap(self, name, layer, fn):
        """The wrapper of fn in this tracer's mode, or None to leave it be."""
        if self.mode == "counts":
            if name in ITEMS:
                return self._items(name, layer, fn)
            return self._counter(name, layer, fn)
        if name in ITEMS or name in COUNTED:
            return None
        return self._span(name, layer, fn)

    # -- installation -------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package):
        """Wrap every public function and method of the package's modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        replacements = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapper = self._wrap(name, layer, obj)
                    if wrapper:
                        self.wrapped[name] = obj
                        replacements[obj] = wrapper
                elif inspect.isclass(obj) and not issubclass(obj, BaseException) \
                        and not dataclasses.is_dataclass(obj):
                    self._install_class(layer, obj)
        # rebind in every namespace that holds an original, the package included
        for module in modules:
            for attr, obj in sorted(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._patch(module, attr, replacements[obj])

    def _install_class(self, layer, cls):
        for attr, raw in sorted(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if cls.__name__ == "FieldElement":
                if attr in ELEM_OPS and self.mode == "counts":
                    self.wrapped[name] = raw
                    self._patch(cls, attr, self._counter(name, layer, raw, "field.elem_ops"))
                continue
            if attr.startswith("_") and attr != "__init__" and name not in COUNTED:
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if not inspect.isfunction(fn):
                continue
            wrapper = self._wrap(name, layer, fn)
            if wrapper:
                self.wrapped[name] = fn
                self._patch(cls, attr, classmethod(wrapper) if fn is not raw else wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def self_ms(self, scale=None) -> Counter:
        """Per-layer span time not covered by child spans, in ms; a span of
        job k counts scale[k] times its length when scale is given."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, layer, start, end, parent, job), covered in zip(self.spans, child):
            out[layer] += (end - start - covered) * 1000 * (scale[job] if scale else 1.0)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
