import json

import pytest

from gridres.cli import main


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


def test_cb_verify_builds_no_relation(capsys, tmp_path, monkeypatch):
    from gridres import cli

    def refuse(system):
        raise AssertionError("per-point relation built")
    monkeypatch.setattr(cli.cb, "cb_coefficients", refuse)
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


@pytest.mark.parametrize("budget, exit_code", [("80", 0), ("79", 3)])
def test_cover_bound_budget_pins_node_count(capsys, tmp_path, budget, exit_code):
    code, report, _ = run(capsys, tmp_path, "cover-bound", {
        "field": RATIONALS, "grid": [["0", "1", "2"], ["0", "1", "2"]],
        "excluded": ["0", "0"],
    }, "--budget", budget)
    assert code == exit_code
    if exit_code == 0:
        assert report["result"] == {"min_cover": 4, "bound": 4, "meets_bound": True}


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


def test_toric_verify_checks_each_zero_once(capsys, tmp_path, monkeypatch):
    from gridres import toric
    calls, original = [], toric.determinant

    def counted(rows, field):
        calls.append(len(rows))
        return original(rows, field)
    monkeypatch.setattr(toric, "determinant", counted)
    code, report, _ = run(capsys, tmp_path, "toric-verify", TORIC_ZEROS_DOC)
    assert code == 0 and report["result"]["agree"] is True
    # default samples: one per vertex of the sum polytope (4 here), plus f
    assert len(calls) == len(TORIC_ZEROS_DOC["zeros"])

    calls.clear()
    code, report, _ = run(capsys, tmp_path, "toric-verify", {
        "field": RATIONALS, "vars": ["x", "y"], "poly": "3*x^2*y + x*y - 2",
        "grids": [["1", "2", "3"], ["1", "2"]]})
    assert code == 0 and report["result"]["agree"] is True
    assert len(calls) == 6
