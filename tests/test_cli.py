import json
import signal
import time
from itertools import product
from random import Random

import pytest

from gridres import multipoly, nullstellensatz, toric
from gridres.cli import main

from helpers import affine_dimension, point_in_hull


def run(capsys, tmp_path, subcommand, doc, *extra):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code = main([subcommand, "--input", str(path), *extra])
    out = capsys.readouterr()
    return code, json.loads(out.out), out.err


RATIONALS = {"kind": "rationals"}
F7 = {"kind": "prime-field", "modulus": "7"}


def test_coeff_worked_example(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "coeff", {
        "field": RATIONALS, "vars": ["x", "y"],
        "poly": "3*x^2*y + x*y - 2",
        "grids": [["0", "1", "2"], ["0", "1"]],
    })
    assert code == 0
    assert report["result"]["coefficient_via_grid"] == "3"
    assert report["result"]["agrees"] is True
    assert "elapsed_ms" in report


def test_report_keys(capsys, tmp_path):
    """A report holds the subcommand, the result or the error, and the time;
    the job document is not echoed."""
    doc = {"field": RATIONALS, "vars": ["x"], "poly": "x^2", "grids": [["0", "1", "2"]]}
    code, report, _ = run(capsys, tmp_path, "coeff", doc)
    assert code == 0
    assert list(report) == ["subcommand", "result", "elapsed_ms"]
    code, report, _ = run(capsys, tmp_path, "coeff", dict(doc, poly="x +* 1"))
    assert code == 2
    assert list(report) == ["subcommand", "error", "elapsed_ms"]
    assert list(report["error"]) == ["type", "message"]


def test_coeff_not_prime_modulus(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "coeff", {
        "field": {"kind": "prime-field", "modulus": "10"},
        "vars": ["x"], "poly": "x", "grids": [["0", "1"]],
    })
    assert code == 2
    assert "modulus not prime" in report["error"]["message"]
    assert "result" not in report


def test_relaxed_rejection_is_input_error(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "coeff", {
        "field": RATIONALS, "vars": ["x", "y"],
        "poly": "x^2*y^2", "grids": [["0", "1"], ["0", "1"]],
    })
    assert code == 2
    assert "relaxed support" in report["error"]["message"]


def test_witness(capsys, tmp_path):
    doc = {"field": RATIONALS, "vars": ["x", "y"],
           "poly": "x*y + 1", "grids": [["0", "1"], ["0", "1"]]}
    code, report, _ = run(capsys, tmp_path, "witness", doc)
    assert code == 0
    assert report["result"]["witness"] == ["0", "0"]

    doc["poly"] = "0"
    code, report, _ = run(capsys, tmp_path, "witness", doc)
    assert code == 1
    assert report["result"]["witness"] is None


def test_witness_on_a_deep_grid(capsys, tmp_path):
    """1,200 axes: the walk keeps a frame per axis, not a Python call."""
    n = 1200
    code, report, _ = run(capsys, tmp_path, "witness", {
        "field": RATIONALS, "vars": [f"x{i}" for i in range(n)],
        "poly": "1", "grids": [["1", "2"]] * n})
    assert code == 0
    assert report["result"]["witness"] == ["1"] * n


def test_cb_verify(capsys, tmp_path):
    doc = {"field": RATIONALS, "vars": ["x", "y"],
           "poly": "x + y", "grids": [["0", "1", "2"], ["0", "1", "2"]]}
    code, report, _ = run(capsys, tmp_path, "cb-verify", doc)
    assert code == 0
    assert report["result"]["residual"] == "0"
    assert report["result"]["within_bound"] is True

    doc["poly"] = "x^3*y^3"
    code, report, _ = run(capsys, tmp_path, "cb-verify", doc)
    assert code == 0
    assert report["result"]["residual"] == "9"
    assert report["result"]["within_bound"] is False


def test_cb_verify_builds_no_relation(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "cb-verify", {
        "field": F7, "vars": ["x", "y", "z"], "poly": "x^2*y*z + 3*y^2",
        "grids": [["1", "2", "3"], ["0", "4"], ["2", "5", "6"]]})
    assert code == 0
    assert report["result"] == {"residual": "0", "degree_bound": 4,
                                "total_degree": 4, "within_bound": True}


def test_cb_forced(capsys, tmp_path):
    values = [{"point": [str(a), str(b)], "value": "0"}
              for a in (0, 1, 2) for b in (0, 1, 2) if (a, b) != (2, 2)]
    code, report, _ = run(capsys, tmp_path, "cb-forced", {
        "field": RATIONALS, "grids": [["0", "1", "2"], ["0", "1", "2"]],
        "target": ["2", "2"], "values": values,
    })
    assert code == 0
    assert report["result"]["forced_value"] == "0"


def test_cb_forced_repeated_point(capsys, tmp_path):
    # a conflicting second record for (0, 0) must not replace the first
    values = [{"point": ["0", "0"], "value": "0"}, {"point": ["0", "0"], "value": "5"},
              {"point": ["0", "1"], "value": "0"}, {"point": ["1", "0"], "value": "0"}]
    code, report, _ = run(capsys, tmp_path, "cb-forced", {
        "field": RATIONALS, "grids": [["0", "1"], ["0", "1"]],
        "target": ["1", "1"], "values": values,
    })
    assert code == 2
    assert "result" not in report
    assert report["error"] == {"type": "InputError",
                               "message": "value point ['0', '0'] is given twice"}


def _count_scalar_reads(monkeypatch) -> list:
    """The strings read by the one scalar reader, which Field.__call__
    wraps and the CLI also calls directly for raw values."""
    from gridres import cli, field
    read, original = [], field._read_scalar

    def counted(text, p):
        read.append(text)
        return original(text, p)
    monkeypatch.setattr(field, "_read_scalar", counted)
    monkeypatch.setattr(cli, "_read_scalar", counted)
    return read


def test_cb_forced_parses_each_point_string_once(capsys, tmp_path, monkeypatch):
    # the points repeat the grid's node strings; values are read one by one,
    # to raw values with no element
    parsed = _count_scalar_reads(monkeypatch)
    grids = [["0", "1/2", "3"], ["0", "1/2"]]
    points = [[a, b] for a in grids[0] for b in grids[1] if [a, b] != ["3", "1/2"]]
    values = [{"point": pt, "value": str(10 + k)} for k, pt in enumerate(points)]
    for field in (RATIONALS, F7):
        parsed.clear()
        code, _, _ = run(capsys, tmp_path, "cb-forced", {
            "field": field, "grids": grids, "target": ["3", "1/2"], "values": values})
        assert code == 0
        assert sorted(parsed) == sorted(["0", "1/2", "3"] + [v["value"] for v in values])


def _box_records(grids, target, skip=(), extra=()):
    """A value record of 1 for every grid point except target and skip."""
    from itertools import product
    return [{"point": list(pt), "value": "1"} for pt in product(*grids)
            if list(pt) != target and list(pt) not in skip] + list(extra)


GRID_2X2 = [["0", "1"], ["0", "1"]]


@pytest.mark.parametrize("field, grids, points, shown", [
    (RATIONALS, [["0", "1/2"], ["0", "1"]], (["1/2", "1"], ["2/4", "1"]), "['1/2', '1']"),
    (F7, [["3", "5"], ["0", "1"]], (["3", "1"], ["10", "1"]), "['3', '1']"),
    (RATIONALS, GRID_2X2, (["5/2", "1"], ["10/4", "1"]), "['5/2', '1']"),  # off the grid
    (RATIONALS, GRID_2X2, (["1"], ["2/2"]), "['1']"),  # of the wrong length
], ids=["Q", "F7", "off-grid", "short"])
def test_cb_forced_point_written_two_ways_is_given_twice(capsys, tmp_path, field, grids,
                                                         points, shown):
    values = [{"point": pt, "value": str(k)} for k, pt in enumerate(points)]
    code, report, _ = run(capsys, tmp_path, "cb-forced", {
        "field": field, "grids": grids, "target": [g[0] for g in grids], "values": values})
    assert code == 2
    assert report["error"] == {"type": "InputError",
                               "message": f"value point {shown} is given twice"}


# each message as the cb-forced of value records keyed by field elements gave it
@pytest.mark.parametrize("field, grids, target, values, message", [
    (RATIONALS, GRID_2X2, ["1", "1"],
     _box_records(GRID_2X2, ["1", "1"], extra=[{"point": ["5/3", "0"], "value": "1"}]),
     "unexpected points in values, e.g. ('5/3', '0')"),
    (F7, GRID_2X2, ["1", "1"],
     _box_records(GRID_2X2, ["1", "1"], extra=[{"point": ["4", "0", "1"], "value": "1"},
                                               {"point": ["3", "9"], "value": "2"}]),
     "unexpected points in values, e.g. ('3', '2')"),
    (RATIONALS, GRID_2X2, ["1", "1"], _box_records(GRID_2X2, None),
     "unexpected points in values, e.g. ('1', '1')"),
    (RATIONALS, [["0", "1", "2"], ["0", "1"]], ["2", "1"],
     _box_records([["0", "1", "2"], ["0", "1"]], ["2", "1"], skip=[["0", "1"], ["1", "0"]]),
     "values missing for 2 grid points, e.g. ('0', '1')"),
    (RATIONALS, [["0", "1", "2"], ["0", "1"]], ["2", "1"],
     _box_records([["0", "1", "2"], ["0", "1"]], None, skip=[["0", "1"]]),
     "values missing for 1 grid points, e.g. ('0', '1')"),
    (RATIONALS, [["0", "1", "2"], ["0", "1"]], ["0", "0"],
     _box_records([["0", "1", "2"], ["0", "1"]], ["0", "0"], skip=[["1", "1"]],
                  extra=[{"point": ["7", "7"], "value": "1"}]),
     "values missing for 1 grid points, e.g. ('1', '1')"),
    (RATIONALS, GRID_2X2, ["9", "1/3"], _box_records(GRID_2X2, None),
     "target ('9', '1/3') is not a grid point"),
    (F7, GRID_2X2, ["1"], [], "target ('1',) is not a grid point"),
], ids=["off-grid-Q", "off-grid-F7", "target-given", "missing", "missing-and-target-given",
        "missing-and-off-grid",
        "off-grid-target", "short-target"])
def test_cb_forced_value_messages(capsys, tmp_path, field, grids, target, values, message):
    code, report, _ = run(capsys, tmp_path, "cb-forced", {
        "field": field, "grids": grids, "target": target, "values": values})
    assert code == 2
    assert report["error"] == {"type": "ValueError", "message": message}


def test_cb_forced_record_errors_come_before_the_target(capsys, tmp_path):
    # an off-grid target is reported only once every record has been read
    code, report, _ = run(capsys, tmp_path, "cb-forced", {
        "field": RATIONALS, "grids": GRID_2X2, "target": ["9", "9"],
        "values": [{"point": ["0", "0"], "value": "1"}, {"point": ["0", "0"], "value": "1"}]})
    assert code == 2
    assert report["error"] == {"type": "InputError",
                               "message": "value point ['0', '0'] is given twice"}


@pytest.mark.parametrize("field", [RATIONALS, {"kind": "prime-field", "modulus": "10007"}],
                         ids=["Q", "F10007"])
def test_cb_forced_matches_pointwise_oracle(capsys, tmp_path, field):
    from random import Random

    from gridres.cli import _decode_field
    from helpers import pointwise_alpha, random_element, random_nodes
    f = _decode_field({"field": field})

    def spell(a):
        """a written otherwise than the grid writes it: 2n/2d over Q, plus p mod p"""
        if f.modulus is None:
            return f"{2 * a.value.numerator}/{2 * a.value.denominator}"
        return str(a.value + f.modulus)
    rng = Random(f"cb-forced-{f}")
    for case in range(12):
        n = rng.randint(1, 3)
        nodes = [random_nodes(rng, f, rng.randint(1, 4)) for _ in range(n)]
        alpha = pointwise_alpha(nodes)
        target = rng.choice(list(alpha))
        values = {x: random_element(rng, f) for x in alpha if x != target}
        expected = -sum((alpha[x] * v for x, v in values.items()), f.zero) / alpha[target]
        code, report, _ = run(capsys, tmp_path, "cb-forced", {
            "field": field, "grids": [[str(a) for a in ns] for ns in nodes],
            "target": [str(a) for a in target],
            "values": [{"point": [spell(a) for a in x], "value": str(v)}
                       for x, v in values.items()]})
        assert code == 0, report
        assert report["result"]["forced_value"] == str(expected), case


def test_cb_forced_does_only_the_final_scalar_operations(capsys, tmp_path, elem_ops):
    grids = [["0", "1", "2", "5/2"], ["0", "-1", "1/3"], ["1", "2"]]
    values = [dict(rec, value=str(k)) for k, rec in
              enumerate(_box_records(grids, ["1", "1/3", "2"]))]
    code, _, _ = run(capsys, tmp_path, "cb-forced", {
        "field": RATIONALS, "grids": grids, "target": ["1", "1/3", "2"], "values": values})
    assert code == 0
    assert len(elem_ops) <= 3  # the final -v * alpha_t^-1


Q_GRIDS = [["-2", "0", "1/3", "5/7"], ["1/1000003", "-4/11", "6"]]


@pytest.mark.parametrize("subcommand, doc, expected", [
    ("coeff", {"poly": "1/5*x^3*y^2 - 7/9*x^9*y + 1/13*x*y + 2"},
     {"coefficient_via_grid": "1/5"}),
    ("cb-verify", {"poly": "1/3*x^2*y - 5/2*x*y + 1/7"}, {"residual": "0"}),
    ("witness", {"poly": "x*(x + 2)*(2/3*x*y^2 + 1/17)"},
     {"coefficient_via_grid": "2/3", "witness": ["1/3", "-4/11"]}),
    ("cb-forced", {"target": ["1/3", "6"],
                   "values": [{"point": [a, b], "value": f"{k}/{k + 1}"}
                              for k, (a, b) in enumerate(product(*Q_GRIDS))
                              if [a, b] != ["1/3", "6"]]}, {}),
])
def test_q_grid_kernels_collapse_only_ints(capsys, tmp_path, monkeypatch, subcommand, doc,
                                           expected):
    """Over Q the sum, the forced contraction and the witness walk clear
    denominators first: every coefficient and table value _collapse
    receives is an int."""
    from gridres import cayley_bacharach, nullstellensatz
    original = nullstellensatz._collapse
    calls, stray = [], []

    def checked(terms, table, p):
        calls.append(1)
        stray.extend(c for c in [*terms.values(), *table.values()] if type(c) is not int)
        return original(terms, table, p)
    for module in (nullstellensatz, cayley_bacharach):
        monkeypatch.setattr(module, "_collapse", checked)
    code, report, _ = run(capsys, tmp_path, subcommand, {
        "field": RATIONALS, "vars": ["x", "y"], "grids": Q_GRIDS, **doc})
    assert code == 0, report
    assert calls and not stray
    assert {k: report["result"][k] for k in expected} == expected


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_q_coeff_with_a_huge_spike_within_a_second(capsys, tmp_path):
    """The axis tables hold only the exponents present in f, so x^200000
    costs one power per node, not a table over every exponent up to it."""
    def too_slow(signum, frame):
        raise TimeoutError("coeff ran for over 1 s")

    handler = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code, report, _ = run(capsys, tmp_path, "coeff", {
            "field": RATIONALS, "vars": ["x", "y"], "poly": "x^200000*y + 3*x*y^2 + x*y",
            "grids": [["1/2", "3"], ["2/7", "5", "-1/3"]]})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert code == 0
    assert report["result"]["coefficient_via_grid"] == "3"


def test_line_and_point_coordinates_are_coerced_once(monkeypatch):
    # each JSON string is read once to a raw value; the affine z is a raw 1
    from gridres.cli import _decode_lines, _decode_point
    from gridres.field import Field
    calls = _count_scalar_reads(monkeypatch)
    doc = {"red": [["1", "0", "0"], ["1", "0", "-1"]], "blue": [["0", "1", "-1/2"]]}
    for field in (Field.rationals(), Field.prime(7)):
        calls.clear()
        for key in ("red", "blue"):
            _decode_lines(field, doc, key)
        assert calls == [c for key in ("red", "blue") for line in doc[key] for c in line]
        calls.clear()
        _decode_point(field, ["1/2", "3"])
        _decode_point(field, ["1", "2", "0"])
        assert calls == ["1/2", "3", "1", "2", "0"]


def test_cover_bound(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "cover-bound", {
        "field": RATIONALS, "grid": [["0", "1", "2"], ["0", "1"]],
        "excluded": ["0", "0"],
    })
    assert code == 0
    assert report["result"] == {"min_cover": 3, "bound": 3, "meets_bound": True}


def test_cover_bound_budget(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "cover-bound", {
        "field": RATIONALS, "grid": [["0", "1", "2"], ["0", "1", "2"]],
        "excluded": ["0", "0"],
    }, "--budget", "1")
    assert code == 3
    assert "budget" in report["error"]["message"]


@pytest.mark.parametrize("budget, exit_code", [("-3", 2), ("0", 3)])
@pytest.mark.parametrize("subcommand", ["cover-bound", "lines-search"])
@pytest.mark.parametrize("from_flag", [True, False])
def test_negative_budget_is_invalid_input(capsys, tmp_path, budget, exit_code,
                                          subcommand, from_flag):
    if subcommand == "cover-bound":
        doc = {"field": RATIONALS, "grid": [["0", "1", "2"], ["0", "1", "2"]],
               "excluded": ["0", "0"]}
    else:
        doc = {"field": F7, "red": [["1", "0", "-1"], ["1", "0", "-2"]],
               "blue": [["0", "1", "-1"], ["0", "1", "-2"]]}
    extra = ("--budget", budget) if from_flag else ()
    if not from_flag:
        doc["budget"] = budget
    code, report, _ = run(capsys, tmp_path, subcommand, doc, *extra)
    assert code == exit_code
    message = {"-3": "budget must be nonnegative, got -3",
               "0": "search budget exceeded (0 nodes)"}[budget]
    assert report["error"]["message"] == message


@pytest.mark.parametrize("budget, exit_code", [("80", 0), ("26", 0), ("13", 0), ("12", 3)])
def test_cover_bound_budget_pins_node_count(capsys, tmp_path, budget, exit_code):
    # 13 nodes decide the instance; 26 and 80, the counts of the searches
    # without sibling dominance and without the residual-trace bound, still do
    code, report, _ = run(capsys, tmp_path, "cover-bound", {
        "field": RATIONALS, "grid": [["0", "1", "2"], ["0", "1", "2"]],
        "excluded": ["0", "0"],
    }, "--budget", budget)
    assert code == exit_code
    if exit_code == 0:
        assert report["result"] == {"min_cover": 4, "bound": 4, "meets_bound": True}


BUDGET_DOCS = {
    "cover-bound": {"field": RATIONALS, "grid": [["0", "1", "2"], ["0", "1", "2"]],
                    "excluded": ["0", "0"]},
    "problem1-bound": {"field": RATIONALS,
                       "red": [["1", "0", "0"], ["1", "0", "-1"], ["1", "0", "-2"]],
                       "blue": [["0", "1", "0"], ["0", "1", "-1"], ["0", "1", "-2"]],
                       "excluded": ["0", "0"]},
    "lines-search": {"field": {"kind": "prime-field", "modulus": "5"},
                     "red": [["1", "0", str(-c)] for c in range(5)],
                     "blue": [["0", "1", str(-c)] for c in range(5)]},
    "newton": {"field": RATIONALS, "vars": ["x", "y"], "poly": "3*x^2*y + x*y - 2"},
    "toric-verify": {"field": RATIONALS, "vars": ["x", "y"], "poly": "x^3*y + x*y + 7",
                     "grids": [["1", "2"], ["3", "5"]]},
}


@pytest.mark.parametrize("subcommand, budget, best", [
    ("cover-bound", 0, None), ("cover-bound", 4, None), ("cover-bound", 12, 4),
    ("problem1-bound", 0, None), ("problem1-bound", 4, None), ("problem1-bound", 10, 4),
    ("lines-search", 0, None), ("lines-search", 5, None), ("lines-search", 20, 5)])
def test_budget_error_reports_progress(capsys, tmp_path, subcommand, budget, best):
    """A tripped budget reports the nodes explored and the smallest cover
    size found by then (None before the first cover)."""
    code, report, _ = run(capsys, tmp_path, subcommand, BUDGET_DOCS[subcommand],
                          "--budget", str(budget))
    assert code == 3
    assert report["error"] == {"type": "BudgetExceededError",
                               "message": f"search budget exceeded ({budget} nodes)",
                               "nodes": budget, "best": best}


def test_hyper_verify(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "hyper-verify", {
        "field": {"kind": "prime-field", "modulus": "5"},
        "vars": ["x", "y"],
        "system": ["x^2 - 1", "y^2 - x"],
        "poly": "x*y",
    })
    assert code == 0
    assert report["result"]["solution_count"] == 4
    assert report["result"]["witness"] == ["1", "1"]


def test_newton(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "newton", {
        "field": RATIONALS, "vars": ["x", "y"], "poly": "3*x^2*y + x*y - 2",
    })
    assert code == 0
    assert report["result"]["vertices"] == [[0, 0], [1, 1], [2, 1]]


def test_newton_affine_dimension_four(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "newton", {
        "field": RATIONALS, "vars": ["z1", "z2", "z3", "z4"],
        "poly": "z1*z2 + z3^2*z4 + 1 + z1^2 + z4^3 + z1*z2*z3*z4",
    })
    assert code == 0
    assert report["result"] == {
        "vertices": [[0, 0, 0, 0], [0, 0, 0, 3], [0, 0, 2, 1], [1, 1, 0, 0],
                     [1, 1, 1, 1], [2, 0, 0, 0]],
        "support": [[0, 0, 0, 0], [1, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 3],
                    [0, 0, 2, 1], [1, 1, 1, 1]],
        "affine_dim": 4,
    }


def _monomial(names, exponents):
    return "*".join([f"{v}^{e}" for v, e in zip(names, exponents) if e] or ["1"])


@pytest.mark.parametrize("nvars, seed, flat", [(4, 1, False), (4, 2, True),
                                               (5, 3, False), (5, 4, True)])
def test_newton_in_four_and_five_variables_matches_lp_oracle(capsys, tmp_path, nvars,
                                                             seed, flat):
    """Random supports, and supports on the hyperplane where the first
    exponent is the sum of the second and third."""
    rng = Random(seed)
    names = [f"z{i}" for i in range(1, nvars + 1)]
    support = set()
    while len(support) < 12:
        m = [rng.randint(0, 3) for _ in range(nvars)]
        if flat:
            m[0] = m[1] + m[2]
        support.add(tuple(m))
    code, report, _ = run(capsys, tmp_path, "newton", {
        "field": RATIONALS, "vars": names,
        "poly": " + ".join(_monomial(names, m) for m in sorted(support))})
    assert code == 0
    points = sorted(support)
    vertices = [q for i, q in enumerate(points)
                if not point_in_hull(q, points[:i] + points[i + 1:])]
    assert report["result"]["vertices"] == [list(v) for v in vertices]
    assert report["result"]["affine_dim"] == affine_dimension(points) == nvars - flat


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_newton_four_variables_many_points_within_a_second(capsys, tmp_path):
    """The box {1, 2, 3}^4 and the eight points 2 +- 2 e_i: 89 support
    points, whose vertices are the 16 box corners and the 8 spikes."""
    names = ["a", "b", "c", "d"]
    spikes = [tuple(2 + s * 2 * (i == j) for j in range(4)) for i in range(4) for s in (-1, 1)]
    support = set(product((1, 2, 3), repeat=4)) | set(spikes)
    assert len(support) == 89

    def too_slow(signum, frame):
        raise TimeoutError("newton ran for over 1 s")

    handler = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code, report, _ = run(capsys, tmp_path, "newton", {
            "field": RATIONALS, "vars": names,
            "poly": " + ".join(_monomial(names, m) for m in sorted(support))})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert code == 0
    expected = sorted(set(product((1, 3), repeat=4)) | set(spikes))
    assert report["result"]["vertices"] == [list(v) for v in expected]
    assert report["result"]["affine_dim"] == 4


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
@pytest.mark.parametrize("extra, budget, seconds", [((), 1_000_000, 15.0),
                                                    (("--budget", "50000"), 50_000, 1.0)])
def test_newton_twelve_variables_stops_at_the_budget(capsys, tmp_path, extra, budget,
                                                     seconds):
    """50 random terms in 12 variables: their hull has about 711,000
    facets and took minutes to build unbounded; the budget stops it and
    reports the nodes counted."""
    rng = Random(600)
    names = [f"x{i}" for i in range(12)]
    support = sorted({tuple(rng.randint(0, 3) for _ in names) for _ in range(50)})

    def too_slow(signum, frame):
        raise TimeoutError(f"newton ran for over {seconds} s")

    handler = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        code, report, _ = run(capsys, tmp_path, "newton", {
            "field": RATIONALS, "vars": names,
            "poly": " + ".join(_monomial(names, m) for m in support)}, *extra)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert code == 3
    assert report["error"] == {"type": "BudgetExceededError",
                               "message": f"search budget exceeded ({budget} nodes)",
                               "nodes": budget, "best": None}


def test_newton_planar_support_in_3d(capsys, tmp_path):
    # every exponent lies in the plane c = a + b; (1, 0, 1) and (1, 1, 2) are not vertices
    code, report, _ = run(capsys, tmp_path, "newton", {
        "field": RATIONALS, "vars": ["x", "y", "z"],
        "poly": "1 + x*z + y*z + x*y*z^2 + x^2*y*z^3 + 3*x*y^2*z^3 + x^2*z^2",
    })
    assert code == 0
    assert report["result"] == {
        "vertices": [[0, 0, 0], [0, 1, 1], [1, 2, 3], [2, 0, 2], [2, 1, 3]],
        "support": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 2], [2, 0, 2],
                    [1, 2, 3], [2, 1, 3]],
        "affine_dim": 2,
    }


def test_unfolded(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "unfolded", {
        "field": RATIONALS, "vars": ["x", "y"],
        "system": ["1 + x*y", "1 + x*y"],
    })
    assert code == 1
    assert report["result"]["witness_direction"] == [1, -1]


def test_toric_verify_grid_route(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "toric-verify", {
        "field": RATIONALS, "vars": ["x", "y"],
        "poly": "3*x^2*y + x*y - 2",
        "grids": [["1", "2", "3"], ["1", "2"]],
    })
    assert code == 0
    result = report["result"]
    assert result["agree"] is True
    assert result["residue_sum"] == "3" == result["coefficient_via_grid"]


@pytest.mark.parametrize("poly, residue_sum", [
    # x^3 = 7x - 6 mod (x - 1)(x - 2), so the (1, 1) coefficient is 7 + 1
    ("x^3*y + x*y + 7", "8"),
    # 1/y = (8 - y)/15 mod (y - 3)(y - 5)
    ("x*y^-1 + 2", "-1/15"),
])
def test_toric_verify_grid_route_outside_grid_formula(capsys, tmp_path, monkeypatch,
                                                      poly, residue_sum):
    """A poly outside the grid formula's domain keeps the two-way answer:
    the grid cross-check is not run and reads null."""
    def refuse(*args):
        raise AssertionError("coefficient_via_grid called outside its domain")

    monkeypatch.setattr(nullstellensatz, "coefficient_via_grid", refuse)
    code, report, _ = run(capsys, tmp_path, "toric-verify", {
        "field": RATIONALS, "vars": ["x", "y"], "poly": poly,
        "grids": [["1", "2"], ["3", "5"]],
    })
    assert code == 0, report
    result = report["result"]
    assert result["residue_sum"] == residue_sum == result["vertex_combination"]
    assert result["agree"] is True and result["coefficient_via_grid"] is None


def test_toric_verify_series_takes_the_budget(capsys, tmp_path):
    """A large exponent in poly makes a vertex series deep; its expansion
    counts its work against the budget and stops with exit 3, while a
    shallow series answers within the same budget as it does without one."""
    doc = {"field": RATIONALS, "vars": ["x", "y"], "poly": "x*y^100000 + 1",
           "grids": [["1", "2"], ["1", "3"]]}
    code, report, _ = run(capsys, tmp_path, "toric-verify", doc, "--budget", "1000")
    assert code == 3
    assert report["error"] == {"type": "BudgetExceededError",
                               "message": "search budget exceeded (1000 nodes)",
                               "nodes": 1000, "best": None}
    doc["poly"] = "x*y^12 + 1"
    answers = []
    for budget in ("1000", "100000"):
        code, report, _ = run(capsys, tmp_path, "toric-verify", doc, "--budget", budget)
        assert code == 0, report
        answers.append(report["result"])
    assert answers[0] == answers[1] and answers[0]["agree"] is True


def test_toric_verify_derives_each_vertex_direction_once(capsys, tmp_path, monkeypatch):
    """With the default samples the split, the solve and the combination
    share one strict support direction per vertex of the sum polytope."""
    asked = []
    original = toric.strict_support_direction

    def counted(polytope, vertex, *args, **kwargs):
        asked.append(tuple(vertex))
        return original(polytope, vertex, *args, **kwargs)

    monkeypatch.setattr(toric, "strict_support_direction", counted)
    code, report, _ = run(capsys, tmp_path, "toric-verify", {
        "field": RATIONALS, "vars": ["x", "y"], "poly": "3*x^2*y + x*y - 2",
        "grids": [["1", "2", "3"], ["1", "2"]]})
    assert code == 0
    result = report["result"]
    vertices = [tuple(json.loads(v)) for v in result["vertex_weights"]]
    vertices += [tuple(v) for v in result["unconstrained_vertices"]]
    assert len(vertices) == 4
    assert sorted(asked) == sorted(vertices)


def test_toric_verify_default_samples_build_no_hull(capsys, tmp_path, monkeypatch):
    """Each default sample z^(w - 1) is one term, its own support polytope:
    the split builds hulls only for the system's g_i."""
    built = []
    original = toric.newton_polytope

    def counted(f, *args, **kwargs):
        built.append(f)
        return original(f, *args, **kwargs)

    monkeypatch.setattr(toric, "newton_polytope", counted)
    code, report, _ = run(capsys, tmp_path, "toric-verify", {
        "field": RATIONALS, "vars": ["x", "y", "z"], "poly": "3*x^2*y*z + x*y - 2",
        "grids": [["1", "2", "3"], ["1", "2"], ["-1", "1/2"]]})
    assert code == 0
    assert report["result"]["agree"] is True
    assert len(report["result"]["vertex_weights"]) == 8
    assert len(built) == 3  # g_1, g_2, g_3


FOUR_VARIABLE_SYSTEM = ["1 + a^2*b + c*d^3 + a*b^3*c^2*d", "1 + b^2*c + d*a^3 + b*c^3*d^2*a",
                        "1 + c^2*d + a*b^3 + c*d^3*a^2*b", "1 + d^2*a + b*c^3 + d*a^3*b^2*c"]


@pytest.mark.parametrize("subcommand, extra", [
    ("unfolded", {}),
    ("toric-verify", {"zeros": [["1", "1", "1", "1"]], "poly": "a*b*c*d"}),
])
@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_four_variables_refused_before_the_sum_polytope(capsys, tmp_path, subcommand, extra):
    """The dimension is refused before any hull of the Minkowski sum is built."""
    def too_slow(signum, frame):
        raise TimeoutError(f"{subcommand} ran for over 1 s")

    handler = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code, report, _ = run(capsys, tmp_path, subcommand, {
            "field": RATIONALS, "vars": ["a", "b", "c", "d"],
            "system": FOUR_VARIABLE_SYSTEM, **extra})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert code == 2
    assert report["error"]["message"] == "unfolded test implemented for dimension <= 3 only"


def test_toric_verify_rejects_zero_node(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "toric-verify", {
        "field": RATIONALS, "vars": ["x"],
        "poly": "x", "grids": [["0", "1"]],
    })
    assert code == 2
    assert "translate" in report["error"]["message"]


def test_lines_search(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "lines-search", {
        "field": F7,
        "red": [["0", "1", "-1"], ["0", "1", "-2"], ["0", "1", "-4"]],
        "blue": [["1", "-1", "0"], ["1", "-2", "0"], ["1", "-4", "0"]],
    })
    assert code == 0
    assert report["result"]["cover_count"] == 1
    cover = report["result"]["covers"][0]
    assert sorted(cover) == [["1", "0", "3"], ["1", "0", "5"], ["1", "0", "6"]]


def test_lines_search_over_rationals(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "lines-search", {
        "field": RATIONALS,
        "red": [["1", "0", "0"], ["1", "0", "-1"]],
        "blue": [["0", "1", "0"], ["0", "1", "-1"]],
    })
    assert code == 0
    assert report["result"]["covers"] == [[["1", "-1", "0"], ["1", "1", "-1"]]]

    code, report, _ = run(capsys, tmp_path, "lines-search", {
        "field": RATIONALS,
        "red": [["1", "0", str(-c)] for c in range(3)],
        "blue": [["0", "1", str(-c)] for c in range(3)],
    })
    assert code == 1
    assert report["result"]["cover_count"] == 0

    code, report, _ = run(capsys, tmp_path, "lines-search", {
        "field": RATIONALS, "red": [["1", "0", "0"]], "blue": [["0", "1", "0"]],
    })
    assert code == 2
    assert "infinitely many" in report["error"]["message"]


def test_lines_search_budget_counts_nodes(capsys, tmp_path):
    doc = {"field": {"kind": "prime-field", "modulus": "5"},
           "red": [["1", "0", str(-c)] for c in range(5)],
           "blue": [["0", "1", str(-c)] for c in range(5)]}
    code, report, _ = run(capsys, tmp_path, "lines-search", doc, "--budget", "21")
    assert code == 0
    assert report["result"]["cover_count"] == 4
    code, report, _ = run(capsys, tmp_path, "lines-search", doc, "--budget", "20")
    assert code == 3
    assert report["error"]["type"] == "BudgetExceededError"


def test_lines_check(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "lines-check", {
        "field": F7,
        "red": [["0", "1", "-1"], ["0", "1", "-2"], ["0", "1", "-4"]],
        "blue": [["1", "-1", "0"], ["1", "-2", "0"], ["1", "-4", "0"]],
        "green": [["1", "0", "-1"], ["1", "0", "-2"], ["1", "0", "-4"]],
    })
    assert code == 0
    assert report["result"]["valid_cover"] is True
    assert report["result"]["product_dependence"] == ["1", "1", "1"]


def test_lines_check_validates_once(capsys, tmp_path, monkeypatch):
    from gridres import lines

    calls = []
    original = lines.grid_intersections

    def counting(red, blue):
        calls.append(1)
        return original(red, blue)
    monkeypatch.setattr(lines, "grid_intersections", counting)
    code, report, _ = run(capsys, tmp_path, "lines-check", {
        "field": F7,
        "red": [["0", "1", "-1"], ["0", "1", "-2"], ["0", "1", "-4"]],
        "blue": [["1", "-1", "0"], ["1", "-2", "0"], ["1", "-4", "0"]],
        "green": [["1", "0", "-1"], ["1", "0", "-2"], ["1", "0", "-4"]],
    })
    assert code == 0
    assert report["result"]["greens_concurrent_at"] == ["0", "1", "0"]
    assert len(calls) == 1


def test_lines_classify(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "lines-classify", {
        "field": F7,
        "red": [["0", "1", "-1"], ["0", "1", "-2"], ["0", "1", "-4"]],
        "blue": [["1", "-1", "0"], ["1", "-2", "0"], ["1", "-4", "0"]],
        "green": [["1", "0", "-1"], ["1", "0", "-2"], ["1", "0", "-4"]],
    })
    assert code == 0
    assert report["result"]["u_set"] == ["1", "2", "4"]
    assert report["result"]["equivalent_to_subgroup_model"] is True


SUBGROUP_LINES = {
    "field": F7,
    "red": [["0", "1", "-1"], ["0", "1", "-2"], ["0", "1", "-4"]],
    "blue": [["1", "-1", "0"], ["1", "-2", "0"], ["1", "-4", "0"]],
    "green": [["1", "0", "-1"], ["1", "0", "-2"], ["1", "0", "-4"]],
}
# the diagonals of the unit square: both pencils parallel, the greens meet at its center
DIAGONALS = {
    "field": RATIONALS,
    "red": [["1", "0", "0"], ["1", "0", "-1"]],
    "blue": [["0", "1", "0"], ["0", "1", "-1"]],
    "green": [["1", "-1", "0"], ["1", "1", "-1"]],
}


@pytest.mark.parametrize("doc", [SUBGROUP_LINES, DIAGONALS])
def test_lines_classify_does_no_element_arithmetic(capsys, tmp_path, elem_ops, doc):
    code, report, _ = run(capsys, tmp_path, "lines-classify", doc)
    assert code == 0, report
    assert report["result"]["equivalent_to_subgroup_model"] is True
    assert not elem_ops


@pytest.mark.parametrize("doc", [SUBGROUP_LINES, DIAGONALS])
def test_lines_check_does_only_the_dependence_scalars(capsys, tmp_path, elem_ops, doc):
    code, report, _ = run(capsys, tmp_path, "lines-check", doc)
    assert code == 0 and report["result"]["greens_concurrent_at"] is not None
    # the scalars are computed raw and only wrapped as field elements
    assert not elem_ops


@pytest.mark.parametrize("doc, dependence", [(SUBGROUP_LINES, ["1", "1", "1"]),
                                             (DIAGONALS, ["1", "-1", "1"])])
def test_lines_check_multiplies_no_polynomials(capsys, tmp_path, monkeypatch, doc, dependence):
    def refuse(*args):
        raise AssertionError("lines-check multiplied polynomials")
    monkeypatch.setattr(multipoly, "_mul_terms", refuse)
    monkeypatch.setattr(multipoly.MultiPoly, "__mul__", refuse)
    code, report, _ = run(capsys, tmp_path, "lines-check", doc)
    assert code == 0
    assert report["result"]["product_dependence"] == dependence


ONE_POINT_GRID = {"field": F7, "red": [["0", "1", "0"]], "blue": [["1", "0", "0"]]}
SUBGROUP_GRID = {k: SUBGROUP_LINES[k] for k in ("field", "red", "blue")}


@pytest.mark.parametrize("grid, cover_count, concurrent", [(ONE_POINT_GRID, 6, False),
                                                           (SUBGROUP_GRID, 1, True)])
def test_lines_check_accepts_every_searched_cover(capsys, tmp_path, grid, cover_count,
                                                  concurrent):
    """A one-line cover has no concurrency point and exits 0 too."""
    code, report, _ = run(capsys, tmp_path, "lines-search", grid)
    assert code == 0
    covers = report["result"]["covers"]
    assert len(covers) == cover_count
    for green in covers:
        code, report, _ = run(capsys, tmp_path, "lines-check", dict(grid, green=green))
        assert code == 0, report
        result = report["result"]
        assert result["valid_cover"] is True and not result["uncovered"]
        assert (result["greens_concurrent_at"] is not None) == concurrent
        assert ("product_dependence" in result) == concurrent


SEARCHES = {"cover-bound": ("cayley_bacharach", "min_cover_size"),
            "lines-search": ("lines", "search_green_covers"),
            "problem1-bound": ("lines", "check_problem1_bound"),
            "newton": ("toric", "newton_polytope"),
            "toric-verify": ("toric", "weighted_vertex_combination")}


@pytest.mark.parametrize("subcommand", sorted(SEARCHES))
def test_default_budget(capsys, tmp_path, monkeypatch, subcommand):
    """A search or hull given no budget gets the CLI default; the flag
    beats the document's "budget", which beats the default.  The library
    default stays None (no bound)."""
    import importlib
    import inspect

    from gridres.cli import _DEFAULT_BUDGET

    module = importlib.import_module(f"gridres.{SEARCHES[subcommand][0]}")
    name = SEARCHES[subcommand][1]
    original = getattr(module, name)
    assert inspect.signature(original).parameters["budget"].default is None
    budgets = []

    def recording(*args, budget):
        budgets.append(budget)
        return original(*args, budget=budget)
    monkeypatch.setattr(module, name, recording)
    for flag, in_doc in ((None, None), (None, "100000"), ("200000", "100000"), ("200000", None)):
        doc = dict(BUDGET_DOCS[subcommand])
        if in_doc is not None:
            doc["budget"] = in_doc
        code, report, _ = run(capsys, tmp_path, subcommand, doc,
                              *(("--budget", flag) if flag else ()))
        assert code == 0, report
    assert budgets == [_DEFAULT_BUDGET, 100000, 200000, 200000]
    # above the 115,131 nodes of the 5x6 grid over Q minus a corner
    assert _DEFAULT_BUDGET == 1_000_000


def test_problem1_bound(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "problem1-bound", {
        "field": RATIONALS,
        "red": [["1", "0", "0"], ["1", "0", "-1"], ["1", "0", "-2"]],
        "blue": [["0", "1", "0"], ["0", "1", "-1"]],
        "excluded": ["0", "0"],
    })
    assert code == 0
    assert report["result"] == {"min_green_lines": 3, "bound": 3, "meets_bound": True}


def test_summary_flag(capsys, tmp_path):
    code, report, err = run(capsys, tmp_path, "coeff", {
        "field": RATIONALS, "vars": ["x", "y"],
        "poly": "x*y", "grids": [["0", "1"], ["0", "1"]],
    }, "--summary")
    assert code == 0
    assert "[coeff]" in err


def test_invalid_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["coeff", "--input", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "invalid JSON" in report["error"]["message"]


def test_missing_section(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "coeff", {"field": RATIONALS})
    assert code == 2
    assert "missing" in report["error"]["message"]


def test_help_names_every_subcommand(capsys):
    from gridres.cli import _HANDLERS
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert len(_HANDLERS) == 13
    for name in _HANDLERS:
        assert name in out


@pytest.mark.parametrize("argv", [
    ["no-such-command", "--input", "job.json"],
    ["coeff"],
    ["--summary", "coeff"],
    ["--input", "job.json"],
])
def test_front_end_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""


def test_options_before_and_after_subcommand(capsys, tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "field": {"kind": "prime-field", "modulus": "5"},
        "red": [["1", "0", str(-c)] for c in range(5)],
        "blue": [["0", "1", str(-c)] for c in range(5)]}))
    for argv in (["--summary", "--budget", "20", "lines-search", "--input", str(path)],
                 ["lines-search", "--input", str(path), "--budget", "20", "--summary"],
                 ["--budget", "20", "lines-search", "--summary", "--input", str(path)]):
        assert main(argv) == 3
        out = capsys.readouterr()
        assert json.loads(out.out)["error"]["type"] == "BudgetExceededError"
        assert "[lines-search]" in out.err and "(exit 3)" in out.err


TORIC_ZEROS_DOC = {
    "field": RATIONALS, "vars": ["x", "y"], "system": ["x^2 - 1", "y^2 - 4"],
    "zeros": [["1", "2"], ["1", "-2"], ["-1", "2"], ["-1", "-2"]], "poly": "x*y"}


@pytest.mark.parametrize("subcommand, doc, key", [
    ("hyper-verify", {"field": F7, "vars": ["x", "y"], "system": "xy", "poly": "x*y"},
     "system"),
    ("unfolded", {"field": RATIONALS, "vars": ["x", "y"], "system": "xy"}, "system"),
    ("toric-verify", dict(TORIC_ZEROS_DOC, samples="xy"), "samples"),
    ("toric-verify", dict(TORIC_ZEROS_DOC, zeros={"1": "2"}), "zeros"),
    ("cb-forced", {"field": RATIONALS, "grids": [["0", "1"], ["0", "1"]],
                   "target": ["1", "1"], "values": {"point": ["0", "0"], "value": "1"}},
     "values"),
    ("cb-forced", {"field": RATIONALS, "grids": [["0", "1"], ["0", "1"]],
                   "target": "11", "values": []}, "target"),
])
def test_non_list_section_is_input_error(capsys, tmp_path, subcommand, doc, key):
    code, report, _ = run(capsys, tmp_path, subcommand, doc)
    assert code == 2
    assert report["error"]["type"] == "InputError"
    assert f'"{key}" must be a list' in report["error"]["message"]


@pytest.mark.parametrize("subcommand, doc, what", [
    ("toric-verify", {"field": RATIONALS, "vars": ["x", "y"], "system": ["x - 1", "y - 2"],
                      "zeros": ["12"], "poly": "x*y"}, "a zero"),
    ("cb-forced", {"field": RATIONALS, "grids": [["0", "1"], ["0", "1"]],
                   "target": ["1", "1"],
                   "values": [{"point": "00", "value": "1"},
                              {"point": ["0", "1"], "value": "1"},
                              {"point": ["1", "0"], "value": "1"}]}, "a value point"),
])
def test_string_point_is_input_error(capsys, tmp_path, subcommand, doc, what):
    # a string is not read character by character as coordinates
    code, report, _ = run(capsys, tmp_path, subcommand, doc)
    assert code == 2
    assert report["error"]["type"] == "InputError"
    assert f"{what} must be a list" in report["error"]["message"]


def _scalar_docs(bad):
    """(subcommand, document, section) with the scalar bad in that section."""
    grid = [["0", "1"], ["0", "1"]]
    lines = {"red": [["1", "0", "0"], ["1", "0", "-1"]], "blue": [["0", "1", "0"], ["0", "1", "-1"]]}
    values = [{"point": list(pt), "value": "1"} for pt in product(*grid) if pt != ("1", "1")]
    return [
        ("coeff", {"vars": ["x", "y"], "poly": "x*y", "grids": [["0", bad], ["0", "1"]]}, "grids"),
        ("cb-verify", {"vars": ["x", "y"], "poly": "x", "grids": [["0", "1"], [bad]]}, "grids"),
        ("cover-bound", {"grid": [["0", bad], ["0", "1"]], "excluded": ["0", "0"]}, "grid"),
        ("cover-bound", {"grid": grid, "excluded": ["0", bad]}, "excluded"),
        ("cb-forced", {"grids": [["0", bad], ["0", "1"]], "target": ["1", "1"], "values": values},
         "grids"),
        ("cb-forced", {"grids": grid, "target": ["1", bad], "values": values}, "target"),
        ("cb-forced", {"grids": grid, "target": ["1", "1"],
                       "values": values + [{"point": [bad, "1"], "value": "1"}]}, "values"),
        ("cb-forced", {"grids": grid, "target": ["1", "1"],
                       "values": values + [{"point": [bad], "value": "1"}]}, "values"),
        ("cb-forced", {"grids": grid, "target": ["1", "1"],
                       "values": values[:2] + [{"point": ["1", "0"], "value": bad}]}, "values"),
        ("toric-verify", dict(TORIC_ZEROS_DOC, zeros=[["1", "2"], [bad, "2"]]), "zeros"),
        ("toric-verify", {"vars": ["x", "y"], "poly": "x*y", "grids": [["1", "2"], ["1", bad]]},
         "grids"),
        ("lines-search", dict(lines, red=[["1", "0", bad]]), "red"),
        ("lines-search", dict(lines, blue=[["1", "0", "0"], [bad, "1", "0"]]), "blue"),
        ("lines-check", dict(lines, green=[["1", "-1", "0"], ["1", bad, "0"]]), "green"),
        ("lines-classify", dict(lines, green=[[bad, "1", "1"]]), "green"),
        ("problem1-bound", dict(lines, excluded=["0", bad]), "excluded"),
    ]


@pytest.mark.parametrize("field, bad", [(F7, "1/0"), (F7, "abc"), (F7, "3/7"),
                                        (RATIONALS, "1/0"), (RATIONALS, "1/ 2x")],
                         ids=["zero-denominator", "not-a-number", "vanishes-mod-p",
                              "Q-zero-denominator", "Q-not-a-number"])
def test_refused_scalar_is_input_error(capsys, tmp_path, field, bad):
    """A scalar that the field cannot read is invalid input: exit 2 with an
    InputError that names the section and the scalar."""
    for subcommand, doc, section in _scalar_docs(bad):
        code, report, _ = run(capsys, tmp_path, subcommand, dict(doc, field=field))
        assert code == 2, (subcommand, section)
        error = report["error"]
        assert error["type"] == "InputError", (subcommand, section, error)
        assert f'{bad!r} in "{section}"' in error["message"], (subcommand, error)


def test_toric_verify_checks_each_zero_once(capsys, tmp_path, monkeypatch):
    from gridres import toric
    calls, original = [], toric.determinant

    def counted(rows, p):
        calls.append(len(rows))
        return original(rows, p)
    monkeypatch.setattr(toric, "determinant", counted)
    code, report, _ = run(capsys, tmp_path, "toric-verify", TORIC_ZEROS_DOC)
    assert code == 0 and report["result"]["agree"] is True
    # default samples: one per vertex of the sum polytope (4 here), plus f
    assert len(calls) == len(TORIC_ZEROS_DOC["zeros"])

    # the grid route reads each weight off the per-axis grid weights
    calls.clear()
    code, report, _ = run(capsys, tmp_path, "toric-verify", {
        "field": RATIONALS, "vars": ["x", "y"], "poly": "3*x^2*y + x*y - 2",
        "grids": [["1", "2", "3"], ["1", "2"]]})
    assert code == 0 and report["result"]["agree"] is True
    assert calls == []


def test_vanishing_polys_built_only_for_toric_grid_route(capsys, tmp_path, monkeypatch):
    # the dependence needs one weight per node, never the g_i
    from gridres import nullstellensatz as ns
    calls, original = [], ns.vanishing_poly_from_nodes

    def counted(nodes):
        calls.append(1)
        return original(nodes)
    monkeypatch.setattr(ns, "vanishing_poly_from_nodes", counted)
    grids = [["1", "2", "3"], ["1", "2"]]
    values = [{"point": [a, b], "value": "0"} for a in grids[0] for b in grids[1]
              if [a, b] != ["3", "2"]]
    for subcommand, doc, built in [
            ("cb-verify", {"field": RATIONALS, "vars": ["x", "y"], "poly": "x + y",
                           "grids": grids}, 0),
            ("cb-forced", {"field": RATIONALS, "grids": grids, "target": ["3", "2"],
                           "values": values}, 0),
            ("toric-verify", {"field": RATIONALS, "vars": ["x", "y"], "poly": "x*y",
                              "grids": grids}, len(grids))]:
        calls.clear()
        code, _, _ = run(capsys, tmp_path, subcommand, doc)
        assert code == 0 and len(calls) == built, subcommand


@pytest.mark.parametrize("name", ["2", "a b", "_y", ""])
def test_unreadable_variable_name_is_input_error(capsys, tmp_path, name):
    # the grammar reads "2" as a literal and "a b" as two tokens, so a
    # variable of such a name could never be written
    code, report, _ = run(capsys, tmp_path, "coeff", {
        "field": RATIONALS, "vars": ["x", name], "poly": "x*2 + 3",
        "grids": [["0", "1"], ["0", "1"]]})
    assert code == 2
    assert report["error"] == {
        "type": "InputError",
        "message": f"variable name {name!r} is not a word starting with a letter"}


@pytest.mark.parametrize("subcommand, doc, message", [
    ("coeff", {"field": RATIONALS, "vars": ["x", "y"], "poly": "x*y",
               "grids": [["0", ["1"]], ["0", "1"]]}, '"grids" must be a list of node lists'),
    ("problem1-bound", {"field": F7, "red": [["1", "0", "0"], ["1", "0", "-1"]],
                        "blue": [["0", "1", "0"], ["0", "1", "-1"]],
                        "excluded": ["1", True]}, "a point is [x, y] or [x, y, z]"),
    ("lines-search", {"field": F7, "red": [["1", None, "0"]], "blue": [["0", "1", "0"]]},
     "a line is a coefficient triple"),
    ("toric-verify", dict(TORIC_ZEROS_DOC, zeros=[["1", "2"], ["1", {"y": "-2"}],
                                                  ["-1", "2"], ["-1", "-2"]]),
     "a zero must be a list of coordinates"),
    ("cb-forced", {"field": RATIONALS, "grids": GRID_2X2, "target": ["1", False],
                   "values": []}, '"target" must be a list of coordinates'),
    ("cb-forced", {"field": RATIONALS, "grids": GRID_2X2, "target": ["1", "1"],
                   "values": [{"point": ["0", "0"], "value": ["1"]}]},
     "a value is a scalar"),
])
def test_non_scalar_json_value_is_input_error(capsys, tmp_path, subcommand, doc, message):
    # lists, objects, true/false and null are not read through str() as scalars
    code, report, _ = run(capsys, tmp_path, subcommand, doc)
    assert code == 2
    assert report["error"]["type"] == "InputError"
    assert report["error"]["message"].startswith(message)


def test_json_numbers_still_read_as_scalars(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "coeff", {
        "field": RATIONALS, "vars": ["x", "y"], "poly": "3*x^2*y + x*y - 2",
        "grids": [[0, 1, 2], ["0", 1]]})
    assert code == 0 and report["result"]["coefficient_via_grid"] == "3"


@pytest.mark.parametrize("field, poly", [
    ({"kind": "prime-field", "modulus": "10007"}, "(x+1)^3000"),
    (RATIONALS, "-5^-3210007"),
    ({"kind": "prime-field", "modulus": "10007"}, "(z1 + z1*x*1/7)^210007"),
])
def test_expansion_over_the_bound_is_input_error(capsys, tmp_path, field, poly):
    started = time.process_time()
    code, report, _ = run(capsys, tmp_path, "coeff", {
        "field": field, "vars": ["x"], "poly": poly, "grids": [["0", "1"]]})
    assert time.process_time() - started < 0.1
    assert code == 2 and report["error"]["type"] == "ParseError"


def test_deep_parentheses_are_a_parse_error(capsys, tmp_path):
    code, report, _ = run(capsys, tmp_path, "coeff", {
        "field": RATIONALS, "vars": ["x"], "poly": "(" * 10_000 + "x" + ")" * 10_000,
        "grids": [["0", "1"]]})
    assert code == 2 and report["error"]["type"] == "ParseError"
    assert report["error"]["message"] == "parentheses nested deeper than 100 at offset 100"
