"""Command-line front end.

One subcommand per public operation, each driven by a JSON job document:

    gridres <subcommand> --input job.json [--summary] [--budget N]

One flat argparse parser, built once at import, takes the subcommand as
a positional choice, so the options may stand before or after it.
Documents carry a "field" object ({"kind": "prime-field", "modulus": "7"}
or {"kind": "rationals"}) plus subcommand-specific sections; numbers are
decimal strings ("a/b" for rationals) to avoid integer-width ambiguity.
List sections (system, samples, zeros, values, target) must be JSON lists,
and so must each zero and each value record's point; a repeated value
point is invalid input.  Every scalar is read to its raw value by the
field's one scalar reader (gridres.field); a scalar it refuses, or a line
or point whose entries all vanish, is an InputError that names the
section.  Node lists decode to one GridSystem, which is also the
separable system of cb-verify, cb-forced and toric-verify; grid-route
toric-verify sums its residues over the grid's zeros with the grid
kernel, so its residue sum is also its coefficient_via_grid.  Nodes,
zeros, polynomials, lines and points hold raw ints/Fractions (see
gridres.expr and gridres.projective); cb-forced keys its value records by
node index.
Reports are JSON on stdout; --summary adds human-readable lines on
stderr.  Exit codes: 0 success/verified, 1 verdict negative, 2 invalid
input, 3 search, hull or series budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import cayley_bacharach as cb
from . import lines as ln
from . import nullstellensatz as ns
from . import toric
from .errors import BudgetExceededError, CounterexampleError
from .expr import ParseError, is_variable_name, parse_poly
from .field import Field, _read_scalar
from .multipoly import MultiPoly, default_names
from .projective import ProjLine, ProjPoint

_DEFAULT_BUDGET = 1_000_000  # nodes; the 5x6 grid over Q minus a corner takes 115,131


class InputError(ValueError):
    """Job document violates the schema."""


# -- document decoding -------------------------------------------------------

def _require(doc: dict, key: str, kind: str):
    if key not in doc:
        raise InputError(f"missing {key!r} section ({kind})")
    return doc[key]


def _require_list(doc: dict, key: str, kind: str) -> list:
    raw = _require(doc, key, kind)
    if not isinstance(raw, list):
        raise InputError(f'"{key}" must be a list ({kind})')
    return raw


# JSON scalars; checked by type(), not isinstance: bool is a subclass of int
_SCALARS = (str, int, float)


def _scalar(field: Field, v, section: str, read=None):
    """The raw value (see gridres.field) of a JSON scalar v of section, read
    by _read_scalar, or by read, a memo of it; a scalar it refuses raises
    InputError naming the section and the scalar."""
    try:
        return (read or _read_scalar)(str(v), field.modulus)
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f'cannot read the scalar {v!r} in "{section}": {err}') from None


def _decode_coords(field: Field, raw, section: str, error: str,
                   lengths: tuple[int, ...] | None = None, read=None) -> tuple:
    """The raw values of the scalars (strings or JSON numbers) of a JSON
    list in section, each read as _scalar reads it.  Anything else, or a
    list whose length is not in lengths, raises error formatted with
    {raw}."""
    if (not isinstance(raw, list) or (lengths is not None and len(raw) not in lengths)
            or not all(type(v) in _SCALARS for v in raw)):
        raise InputError(error.format(raw=raw))
    return tuple([_scalar(field, v, section, read) for v in raw])


def _decode_field(doc: dict) -> Field:
    spec = _require(doc, "field", "object with kind and optional modulus")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputError('"field" must be an object with a "kind"')
    kind = spec["kind"]
    if kind == Field.PRIME:
        if "modulus" not in spec:
            raise InputError("prime field needs a modulus")
        try:
            modulus = int(str(spec["modulus"]))
        except ValueError:
            raise InputError(f"modulus is not an integer: {spec['modulus']!r}") from None
        return Field.prime(modulus)
    if kind == Field.RATIONALS:
        return Field.rationals()
    raise InputError(f"unknown field kind {kind!r}")


def _decode_names(doc: dict, default_arity: int | None = None) -> list[str]:
    if "vars" in doc:
        names = doc["vars"]
        if not isinstance(names, list) or not names:
            raise InputError('"vars" must be a nonempty list of names')
        for v in names:
            if not (isinstance(v, str) and is_variable_name(v)):
                raise InputError(f"variable name {v!r} is not a word starting with a letter")
        if len(set(names)) != len(names):
            raise InputError("repeated variable name")
        return names
    if default_arity is None:
        raise InputError('missing "vars" section (list of variable names)')
    return default_names(default_arity)


def _decode_poly(field: Field, names, text) -> MultiPoly:
    if not isinstance(text, str):
        raise InputError(f"polynomial must be an expression string, got {text!r}")
    return parse_poly(text, field, names)


def _decode_system(field: Field, names, doc: dict) -> list[MultiPoly]:
    raw = _require_list(doc, "system", "list of expression strings")
    return [_decode_poly(field, names, g) for g in raw]


def _decode_grids(field: Field, doc: dict, key: str = "grids", read=None) -> list[tuple]:
    raw = _require(doc, key, "list of node lists")
    error = f'"{key}" must be a list of node lists'
    if not isinstance(raw, list) or not raw or not all(isinstance(g, list) for g in raw):
        raise InputError(error)
    return [_decode_coords(field, g, key, error, read=read) for g in raw]


def _decode_lines(field: Field, doc: dict, key: str) -> list[ProjLine]:
    raw = _require(doc, key, "list of coefficient triples")
    if not isinstance(raw, list) or not raw:
        raise InputError(f'"{key}" must be a nonempty list of lines')
    lines = []
    for k, l in enumerate(raw):
        coords = _decode_coords(field, l, key,
                                "a line is a coefficient triple [a, b, c], got {raw!r}", (3,))
        if not any(coords):
            raise InputError(f'line {k} in "{key}" has all coefficients 0: it is no line')
        lines.append(ProjLine._raw(field, coords))
    return lines


def _decode_config(field: Field, doc: dict) -> ln.LineConfiguration:
    return ln.LineConfiguration(field, *(_decode_lines(field, doc, key)
                                         for key in ("red", "blue", "green")))


def _decode_point(field: Field, raw) -> ProjPoint:
    coords = _decode_coords(field, raw, "excluded",
                            "a point is [x, y] or [x, y, z], got {raw!r}", (2, 3))
    if len(coords) == 3 and not any(coords):
        raise InputError('"excluded" has all coordinates 0: it is no point')
    return ProjPoint._raw(field, coords if len(coords) == 3 else coords + (1,))


def _budget(doc: dict, args) -> int:
    budget = args.budget
    if budget is None:
        try:
            budget = int(str(doc.get("budget", _DEFAULT_BUDGET)))
        except ValueError:
            raise InputError(f"budget is not an integer: {doc['budget']!r}") from None
    if budget < 0:
        raise InputError(f"budget must be nonnegative, got {budget}")
    return budget


# -- serialization -----------------------------------------------------------

def _point_out(pt) -> list[str]:
    return [str(c) for c in pt]


# -- handlers ----------------------------------------------------------------

def _cmd_coeff(doc, args):
    field = _decode_field(doc)
    names = _decode_names(doc)
    f = _decode_poly(field, names, _require(doc, "poly", "expression string"))
    grid = ns.GridSystem(field, _decode_grids(field, doc))
    target = grid.target_exponent
    value = ns.coefficient_via_grid(f, grid)
    direct = f.coefficient(target)
    agrees = value == direct
    result = {
        "target_exponent": list(target),
        "coefficient_via_grid": str(value),
        "coefficient_direct": str(direct),
        "agrees": agrees,
        "classical_degree_ok": ns.check_classical_degree(f, target),
        "relaxed_support_ok": True,
    }
    summary = (f"coefficient at {target}: {value} "
               f"({'agrees with' if agrees else 'DIFFERS from'} the direct read)")
    return result, 0 if agrees else 1, summary


def _cmd_witness(doc, args):
    field = _decode_field(doc)
    names = _decode_names(doc)
    f = _decode_poly(field, names, _require(doc, "poly", "expression string"))
    grid = ns.GridSystem(field, _decode_grids(field, doc))
    value = ns.coefficient_via_grid(f, grid)
    witness = ns.find_nonvanishing_witness(f, grid)
    result = {
        "coefficient_via_grid": str(value),
        "witness": _point_out(witness) if witness else None,
        "witness_value": str(f.evaluate(witness)) if witness else None,
    }
    if witness:
        return result, 0, f"nonvanishing witness {_point_out(witness)}"
    return result, 1, "no nonvanishing grid point"


def _cmd_cb_verify(doc, args):
    field = _decode_field(doc)
    names = _decode_names(doc)
    f = _decode_poly(field, names, _require(doc, "poly", "expression string"))
    system = ns.GridSystem(field, _decode_grids(field, doc))
    residual = cb.verify_cb(f, system)
    bound = system.degree_bound
    degree = f.total_degree()
    within = degree <= bound
    result = {
        "residual": str(residual),
        "degree_bound": bound,
        "total_degree": degree,
        "within_bound": within,
    }
    if within and not residual.is_zero():
        return result, 1, f"dependence violated: residual {residual}"
    return result, 0, f"residual {residual} (bound {bound}, degree {degree})"


def _cmd_cb_forced(doc, args):
    field = _decode_field(doc)
    # the points repeat the few node strings of the grid: read each once
    read = functools.cache(_read_scalar)
    system = ns.GridSystem(field, _decode_grids(field, doc, read=read))
    target = _decode_coords(field, _require(doc, "target", "grid point"), "target",
                            '"target" must be a list of coordinates, got {raw!r}', read=read)
    raw_values = _require_list(doc, "values", "list of {point, value} records")
    index = cb._node_index(system)
    # per axis, each coordinate string once to its node index (None off the
    # grid), through its value, so "1/2" and "2/4" name the same node
    memo = [{} for _ in index]
    given, stray = {}, set()
    for rec in raw_values:
        if not isinstance(rec, dict) or "point" not in rec or "value" not in rec:
            raise InputError("each value record needs point and value")
        point = rec["point"]
        if not isinstance(point, list) or not all(type(v) in _SCALARS for v in point):
            raise InputError(f"a value point must be a list of coordinates, got {point!r}")
        key = (tuple([m[s] if (s := str(v)) in m
                      else m.setdefault(s, ix.get(_scalar(field, s, "values", read)))
                      for m, ix, v in zip(memo, index, point)])
               if len(point) == len(memo) else (None,))
        off = None in key
        if off:
            # off the grid: the raw point serves the messages only
            key = tuple(_scalar(field, str(v), "values", read) for v in point)
            if key in stray:
                raise InputError(f"value point {_point_out(key)} is given twice")
            stray.add(key)
        elif key in given:
            raise InputError(f"value point {_point_out(ns[j] for ns, j in zip(system.nodes, key))}"
                             " is given twice")
        value = rec["value"]
        if type(value) not in _SCALARS:
            raise InputError("a value is a scalar")
        value = _scalar(field, value, "values")
        if not off:
            given[key] = value
    at = cb._target_key(index, target)
    forced = cb._forced_by_index(system, given, stray, target, at)
    result = {"target": _point_out(target), "forced_value": str(forced)}
    return result, 0, f"value at {_point_out(target)} forced to {forced}"


def _cmd_cover_bound(doc, args):
    field = _decode_field(doc)
    grids = _decode_grids(field, doc, key="grid")
    if len(grids) != 2:
        raise InputError("cover-bound handles planar grids (two node lists)")
    excluded = _decode_coords(field, _require(doc, "excluded", "affine point [x, y]"),
                              "excluded", "excluded must be an affine point [x, y]", (2,))
    if excluded[0] not in grids[0] or excluded[1] not in grids[1]:
        raise InputError("excluded point is not a grid point")
    points = [(a, b) for a in grids[0] for b in grids[1]
              if (a, b) != excluded]
    size = cb.min_cover_size(points, excluded, field, budget=_budget(doc, args))
    bound = len(grids[0]) + len(grids[1]) - 2
    holds = size >= bound
    result = {"min_cover": size, "bound": bound, "meets_bound": holds}
    verdict = "meets" if holds else "VIOLATES"
    return result, 0 if holds else 1, f"min cover {size} {verdict} bound {bound}"


def _cmd_hyper_verify(doc, args):
    field = _decode_field(doc)
    names = _decode_names(doc)
    system = cb.HypersurfaceSystem(field, _decode_system(field, names, doc))
    f = _decode_poly(field, names, _require(doc, "poly", "expression string"))
    verdict = cb.verify_hypersurface_theorem(system, f)
    result = {
        "degrees": list(system.degrees),
        "solution_count": len(verdict.solutions),
        "expected_count": verdict.expected_count,
        "solutions": [_point_out(p) for p in verdict.solutions],
        "hypothesis_ok": verdict.hypothesis_ok,
        "degree_ok": verdict.degree_ok,
        "target_exponent": list(verdict.target_exponent),
        "target_coefficient": str(verdict.target_coefficient),
        "witness": _point_out(verdict.witness) if verdict.witness else None,
        "witness_value": str(verdict.witness_value) if verdict.witness_value else None,
    }
    if verdict.witness is not None:
        return result, 0, (f"|X| = {len(verdict.solutions)}, nonvanishing witness "
                           f"{_point_out(verdict.witness)}")
    if not verdict.hypothesis_ok:
        return result, 1, (f"hypothesis failed: |X| = {len(verdict.solutions)}, "
                           f"expected {verdict.expected_count}")
    return result, 1, "statement not applicable (degree or coefficient condition)"


def _cmd_newton(doc, args):
    field = _decode_field(doc)
    names = _decode_names(doc)
    f = _decode_poly(field, names, _require(doc, "poly", "expression string"))
    polytope = toric.newton_polytope(f, budget=_budget(doc, args))
    result = {
        "vertices": [list(v) for v in polytope.vertices],
        "support": [list(m) for m in f.support()],
        "affine_dim": polytope.affine_dim(),
    }
    return result, 0, f"{len(polytope.vertices)} vertices"


def _cmd_unfolded(doc, args):
    field = _decode_field(doc)
    names = _decode_names(doc)
    system = toric.NewtonSystem(_decode_system(field, names, doc))
    flag, witness = toric.is_unfolded(system)
    result = {"unfolded": flag,
              "witness_direction": list(witness) if witness else None}
    if flag:
        return result, 0, "system is unfolded"
    return result, 1, f"not unfolded, witness direction {list(witness)}"


def _cmd_toric_verify(doc, args):
    field = _decode_field(doc)
    if "grids" in doc:
        nodes = _decode_grids(field, doc)
        for i, node_set in enumerate(nodes):
            if not all(node_set):
                raise InputError(
                    f"node set {i} contains 0; translate the grid so the "
                    "zeros lie in the torus")
        names = _decode_names(doc, default_arity=len(nodes))
        zeros = toric.SimpleZeros.of_grid(ns.GridSystem(field, nodes))
        system = zeros.system
    else:
        names = _decode_names(doc)
        system = toric.NewtonSystem(_decode_system(field, names, doc))
        zeros = toric.SimpleZeros(system, [
            _decode_coords(field, z, "zeros", "a zero must be a list of coordinates, got {raw!r}")
            for z in _require_list(doc, "zeros", "list of points")])
    f = _decode_poly(field, names, _require(doc, "poly", "expression string"))
    flag, witness = toric.is_unfolded(system)
    if not flag:
        raise InputError(f"system is not unfolded (witness direction {list(witness)})")
    if "samples" in doc:
        samples = [_decode_poly(field, names, s) for s in
                   _require_list(doc, "samples", "list of expression strings")]
    else:
        samples = toric.default_samples(system)
    budget = _budget(doc, args)
    weights = toric.solve_vertex_coefficients(system, zeros, samples, budget=budget)
    lhs = toric.residue_sum_over_zeros(system, f, zeros)
    rhs = toric.weighted_vertex_combination(system, f, weights, budget=budget)
    agree = lhs == rhs
    result = {
        "residue_sum": str(lhs),
        "vertex_combination": str(rhs),
        "vertex_weights": {str(list(v)): k for v, k in sorted(weights.values.items())},
        "unconstrained_vertices": [list(v) for v in weights.unconstrained],
        "rank": weights.rank,
        "anomalies": [list(v) for v in weights.anomalies],
        "agree": agree,
    }
    if zeros.grid is not None:
        # over grid zeros the residue sum is the grid sum: the target coefficient
        # where the grid formula applies, else the two-way answer stands alone
        target = zeros.grid.target_exponent
        applies = not f.is_laurent() and ns.check_relaxed_support(f, target)
        result["coefficient_via_grid"] = str(lhs) if applies else None
        result["agree"] = agree = agree and (not applies or f.coefficient(target) == lhs)
    if agree:
        return result, 0, f"residue sum {lhs} matches the vertex combination"
    return result, 1, f"MISMATCH: residue sum {lhs}, vertex combination {rhs}"


def _cmd_lines_search(doc, args):
    field = _decode_field(doc)
    red = _decode_lines(field, doc, "red")
    blue = _decode_lines(field, doc, "blue")
    covers = ln.search_green_covers(red, blue, field, budget=_budget(doc, args))
    result = {
        "cover_count": len(covers),
        "covers": [[_point_out(l.coords) for l in cover] for cover in covers],
    }
    if covers:
        return result, 0, f"{len(covers)} green cover(s) found"
    return result, 1, "no green cover exists"


def _cmd_lines_check(doc, args):
    field = _decode_field(doc)
    config = _decode_config(field, doc)
    ok, diagnostics = ln.validate_green_cover(config)
    result = {
        "valid_cover": ok,
        "grid_size": diagnostics["grid_size"],
        "points_per_green": list(diagnostics["points_per_green"]),
        "uncovered": [_point_out(p.coords) for p in diagnostics["uncovered"]],
        "identity_violations": [_point_out(l.coords) for l in diagnostics["identity_violations"]],
    }
    summary = "valid green cover" if ok else "not a valid green cover"
    if ok:
        # one green line has no concurrency point to report
        common = ln.concurrency_point(config.green) if config.n >= 2 else None
        result["greens_concurrent_at"] = _point_out(common.coords) if common else None
        if common is not None:
            alpha, beta, gamma = ln.verify_product_dependence(config)
            result["product_dependence"] = [str(alpha), str(beta), str(gamma)]
            summary += f", dependence ({alpha}, {beta}, {gamma})"
    return result, 0 if ok else 1, summary


def _cmd_lines_classify(doc, args):
    field = _decode_field(doc)
    config = _decode_config(field, doc)
    normalized, report = ln.normalize_biconcurrent(config)
    result = {
        "u_set": [str(u) for u in report.u_set],
        "v_set": [str(v) for v in report.v_set],
        "slopes": [str(s) for s in report.slopes],
        "is_subgroup": report.is_subgroup,
        "v_equals_u": report.v_equals_u,
        "slopes_equal_u": report.slopes_equal_u,
        "equivalent_to_subgroup_model": report.success,
        "normalized": {
            "red": [_point_out(l.coords) for l in normalized.red],
            "blue": [_point_out(l.coords) for l in normalized.blue],
            "green": [_point_out(l.coords) for l in normalized.green],
        },
    }
    if report.success:
        return result, 0, f"equivalent to the subgroup model, U = {result['u_set']}"
    return result, 1, "not equivalent to the subgroup model"


def _cmd_problem1_bound(doc, args):
    field = _decode_field(doc)
    red = _decode_lines(field, doc, "red")
    blue = _decode_lines(field, doc, "blue")
    excluded = _decode_point(field, _require(doc, "excluded", "grid point"))
    size, bound, holds = ln.check_problem1_bound(red, blue, excluded, field,
                                                 budget=_budget(doc, args))
    result = {"min_green_lines": size, "bound": bound, "meets_bound": holds}
    verdict = "meets" if holds else "VIOLATES"
    return result, 0 if holds else 1, f"min green count {size} {verdict} bound {bound}"


_HANDLERS = {
    "coeff": _cmd_coeff,
    "witness": _cmd_witness,
    "cb-verify": _cmd_cb_verify,
    "cb-forced": _cmd_cb_forced,
    "cover-bound": _cmd_cover_bound,
    "hyper-verify": _cmd_hyper_verify,
    "newton": _cmd_newton,
    "unfolded": _cmd_unfolded,
    "toric-verify": _cmd_toric_verify,
    "lines-search": _cmd_lines_search,
    "lines-check": _cmd_lines_check,
    "lines-classify": _cmd_lines_classify,
    "problem1-bound": _cmd_problem1_bound,
}


# argparse keeps no state between parses, so one parser serves every call
_PARSER = argparse.ArgumentParser(
    prog="gridres",
    description="exact grid, dependence, residue, and line-configuration checks")
_PARSER.add_argument("subcommand", choices=_HANDLERS)
_PARSER.add_argument("--input", required=True,
                     help="job document (JSON file, or - for stdin)")
_PARSER.add_argument("--summary", action="store_true",
                     help="also print a human-readable summary on stderr")
_PARSER.add_argument("--budget", type=int, default=None,
                     help="node budget for backtracking searches, the newton "
                          f"hull and toric-verify series (default {_DEFAULT_BUDGET:,})")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    report = {"subcommand": args.subcommand}
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise InputError(f"invalid JSON: {err}") from None
        if not isinstance(doc, dict):
            raise InputError("job document must be a JSON object")
        result, code, summary = _HANDLERS[args.subcommand](doc, args)
        report["result"] = result
    except BudgetExceededError as err:
        report["error"] = {"type": type(err).__name__, "message": str(err),
                           "nodes": err.nodes, "best": err.best}
        code, summary = 3, f"error: {err}"
    except CounterexampleError as err:
        report["error"] = {"type": type(err).__name__, "message": str(err)}
        code, summary = 1, f"verification failure: {err}"
    except (ParseError, InputError, ValueError, KeyError, TypeError,
            ZeroDivisionError, OverflowError, OSError) as err:
        report["error"] = {"type": type(err).__name__, "message": str(err)}
        code, summary = 2, f"error: {err}"
    report["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    if args.summary:
        print(f"[{args.subcommand}] {summary} (exit {code})", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
