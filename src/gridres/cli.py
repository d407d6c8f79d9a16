"""Command-line front end.

One subcommand per public operation, each driven by a JSON job document:

    gridres <subcommand> --input job.json [--summary] [--budget N]

One flat argparse parser, built per call, takes the subcommand as a
positional choice, so the options may stand before or after it.
Documents carry a "field" object ({"kind": "prime-field", "modulus": "7"}
or {"kind": "rationals"}) plus subcommand-specific sections; numbers are
decimal strings ("a/b" for rationals) to avoid integer-width ambiguity.
List sections (system, samples, zeros, values, target) must be JSON lists,
and so must each zero and each value record's point.
Polynomials are parsed on raw ints/Fractions (see gridres.expr); field
elements appear only in the parsed terms.
Reports are JSON on stdout; --summary adds human-readable lines on
stderr.  Exit codes: 0 success/verified, 1 verdict negative, 2 invalid
input, 3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import cayley_bacharach as cb
from . import lines as ln
from . import nullstellensatz as ns
from . import toric
from .errors import BudgetExceededError, CounterexampleError
from .expr import ParseError, parse_poly
from .field import Field
from .multipoly import MultiPoly, default_names
from .projective import ProjLine, ProjPoint


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


def _decode_coords(field: Field, raw, what: str) -> tuple:
    if not isinstance(raw, list):
        raise InputError(f"{what} must be a list of coordinates, got {raw!r}")
    return tuple(field(str(v)) for v in raw)


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
        if (not isinstance(names, list) or not names
                or not all(isinstance(v, str) and v for v in names)):
            raise InputError('"vars" must be a nonempty list of names')
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


def _decode_grids(field: Field, doc: dict, key: str = "grids") -> list[list]:
    raw = _require(doc, key, "list of node lists")
    if not isinstance(raw, list) or not raw or not all(isinstance(g, list) for g in raw):
        raise InputError(f'"{key}" must be a list of node lists')
    return [[field(str(v)) for v in g] for g in raw]


def _decode_line(field: Field, raw) -> ProjLine:
    if not isinstance(raw, list) or len(raw) != 3:
        raise InputError(f"a line is a coefficient triple [a, b, c], got {raw!r}")
    return ProjLine(field, tuple(field(str(v)) for v in raw))


def _decode_lines(field: Field, doc: dict, key: str) -> list[ProjLine]:
    raw = _require(doc, key, "list of coefficient triples")
    if not isinstance(raw, list) or not raw:
        raise InputError(f'"{key}" must be a nonempty list of lines')
    return [_decode_line(field, l) for l in raw]


def _decode_point(field: Field, raw) -> ProjPoint:
    if isinstance(raw, list) and len(raw) == 2:
        return ProjPoint.affine(field, field(str(raw[0])), field(str(raw[1])))
    if isinstance(raw, list) and len(raw) == 3:
        return ProjPoint(field, tuple(field(str(v)) for v in raw))
    raise InputError(f"a point is [x, y] or [x, y, z], got {raw!r}")


def _budget(doc: dict, args) -> int | None:
    if args.budget is not None:
        return args.budget
    if "budget" in doc:
        try:
            return int(str(doc["budget"]))
        except ValueError:
            raise InputError(f"budget is not an integer: {doc['budget']!r}") from None
    return None


# -- serialization -----------------------------------------------------------

def _point_out(pt) -> list[str]:
    return [str(c) for c in pt]


def _line_out(line: ProjLine) -> list[str]:
    return [str(c) for c in line.coords]


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
    system = cb.SeparableSystem(field, _decode_grids(field, doc))
    residual = cb.verify_cb(f, system)
    bound = system.degree_bound
    within = f.total_degree() <= bound
    result = {
        "residual": str(residual),
        "degree_bound": bound,
        "total_degree": f.total_degree(),
        "within_bound": within,
    }
    if within and not residual.is_zero():
        return result, 1, f"dependence violated: residual {residual}"
    return result, 0, f"residual {residual} (bound {bound}, degree {f.total_degree()})"


def _cmd_cb_forced(doc, args):
    field = _decode_field(doc)
    system = cb.SeparableSystem(field, _decode_grids(field, doc))
    relation = cb.cb_coefficients(system)
    target = _decode_coords(field, _require(doc, "target", "grid point"), '"target"')
    raw_values = _require_list(doc, "values", "list of {point, value} records")
    values = {}
    for rec in raw_values:
        if not isinstance(rec, dict) or "point" not in rec or "value" not in rec:
            raise InputError("each value record needs point and value")
        values[_decode_coords(field, rec["point"], "a value point")] = field(str(rec["value"]))
    forced = cb.forced_value(values, relation, target)
    result = {"target": _point_out(target), "forced_value": str(forced)}
    return result, 0, f"value at {_point_out(target)} forced to {forced}"


def _cmd_cover_bound(doc, args):
    field = _decode_field(doc)
    grids = _decode_grids(field, doc, key="grid")
    if len(grids) != 2:
        raise InputError("cover-bound handles planar grids (two node lists)")
    excluded_raw = _require(doc, "excluded", "affine point [x, y]")
    if not isinstance(excluded_raw, list) or len(excluded_raw) != 2:
        raise InputError("excluded must be an affine point [x, y]")
    excluded = (field(str(excluded_raw[0])), field(str(excluded_raw[1])))
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
    raw_system = _require_list(doc, "system", "list of expression strings")
    polys = [_decode_poly(field, names, g) for g in raw_system]
    system = cb.HypersurfaceSystem(field, polys)
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
    polytope = toric.newton_polytope(f)
    result = {
        "vertices": [list(v) for v in polytope.vertices],
        "support": [list(m) for m in f.support()],
        "affine_dim": polytope.affine_dim(),
    }
    return result, 0, f"{len(polytope.vertices)} vertices"


def _cmd_unfolded(doc, args):
    field = _decode_field(doc)
    names = _decode_names(doc)
    raw_system = _require_list(doc, "system", "list of expression strings")
    system = toric.NewtonSystem([_decode_poly(field, names, g) for g in raw_system])
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
            if any(v.is_zero() for v in node_set):
                raise InputError(
                    f"node set {i} contains 0; translate the grid so the "
                    "zeros lie in the torus")
        names = _decode_names(doc, default_arity=len(nodes))
        separable = cb.SeparableSystem(field, nodes)
        system = toric.NewtonSystem(separable.polys_multivariate())
        grid = separable.grid()
        zeros = list(grid.points())
    else:
        names = _decode_names(doc)
        raw_system = _require_list(doc, "system", "list of expression strings")
        system = toric.NewtonSystem([_decode_poly(field, names, g) for g in raw_system])
        zeros_raw = _require_list(doc, "zeros", "list of points")
        zeros = [_decode_coords(field, z, "a zero") for z in zeros_raw]
        grid = None
    f = _decode_poly(field, names, _require(doc, "poly", "expression string"))
    flag, witness = toric.is_unfolded(system)
    if not flag:
        raise InputError(f"system is not unfolded (witness direction {list(witness)})")
    if "samples" in doc:
        samples = [_decode_poly(field, names, s) for s in
                   _require_list(doc, "samples", "list of expression strings")]
    else:
        samples = toric.default_samples(system)
    zeros = toric.SimpleZeros(system, zeros)
    weights = toric.solve_vertex_coefficients(system, zeros, samples)
    form = toric.ToricForm(f, system)
    lhs = toric.residue_sum_over_zeros(form, zeros)
    rhs = toric.weighted_vertex_combination(form, weights)
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
    if grid is not None:
        grid_coefficient = ns.coefficient_via_grid(f, grid)
        result["coefficient_via_grid"] = str(grid_coefficient)
        agree = agree and grid_coefficient == lhs
        result["agree"] = agree
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
        "covers": [[_line_out(l) for l in cover] for cover in covers],
    }
    if covers:
        return result, 0, f"{len(covers)} green cover(s) found"
    return result, 1, "no green cover exists"


def _cmd_lines_check(doc, args):
    field = _decode_field(doc)
    config = ln.LineConfiguration(
        field,
        _decode_lines(field, doc, "red"),
        _decode_lines(field, doc, "blue"),
        _decode_lines(field, doc, "green"))
    ok, diagnostics = ln.validate_green_cover(config)
    result = {
        "valid_cover": ok,
        "grid_size": diagnostics["grid_size"],
        "points_per_green": list(diagnostics["points_per_green"]),
        "uncovered": [_point_out(p.coords) for p in diagnostics["uncovered"]],
        "identity_violations": [_line_out(l) for l in diagnostics["identity_violations"]],
    }
    summary = "valid green cover" if ok else "not a valid green cover"
    if ok:
        common = ln.concurrency_point(config.green)
        result["greens_concurrent_at"] = _point_out(common.coords) if common else None
        if common is not None:
            alpha, beta, gamma = ln.verify_product_dependence(config)
            result["product_dependence"] = [str(alpha), str(beta), str(gamma)]
            summary += f", dependence ({alpha}, {beta}, {gamma})"
    return result, 0 if ok else 1, summary


def _cmd_lines_classify(doc, args):
    field = _decode_field(doc)
    config = ln.LineConfiguration(
        field,
        _decode_lines(field, doc, "red"),
        _decode_lines(field, doc, "blue"),
        _decode_lines(field, doc, "green"))
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
            "red": [_line_out(l) for l in normalized.red],
            "blue": [_line_out(l) for l in normalized.blue],
            "green": [_line_out(l) for l in normalized.green],
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridres",
        description="exact grid, dependence, residue, and line-configuration checks")
    parser.add_argument("subcommand", choices=_HANDLERS)
    parser.add_argument("--input", required=True,
                        help="job document (JSON file, or - for stdin)")
    parser.add_argument("--summary", action="store_true",
                        help="also print a human-readable summary on stderr")
    parser.add_argument("--budget", type=int, default=None,
                        help="node budget for backtracking searches")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
        report["inputs"] = doc
        result, code, summary = _HANDLERS[args.subcommand](doc, args)
        report["result"] = result
    except BudgetExceededError as err:
        report["error"] = {"type": type(err).__name__, "message": str(err)}
        code, summary = 3, f"error: {err}"
    except CounterexampleError as err:
        report["error"] = {"type": type(err).__name__, "message": str(err)}
        code, summary = 1, f"verification failure: {err}"
    except (ParseError, InputError, ValueError, KeyError, TypeError,
            ZeroDivisionError, OverflowError, OSError) as err:
        report["error"] = {"type": type(err).__name__, "message": str(err)}
        code, summary = 2, f"error: {err}"
    report["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if args.summary:
        print(f"[{args.subcommand}] {summary} (exit {code})", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
