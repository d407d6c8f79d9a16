"""The README's export table names only what its modules define, and
exactly what the package imports from each of them; the figures it states
are the ones the code computes."""

import ast
import importlib
import re
from pathlib import Path

import pytest

from gridres import BudgetExceededError, Field, ProjPoint
from gridres.cover import min_line_cover

README = Path(__file__).resolve().parent.parent / "README.md"
ROW = re.compile(r"^\| `(gridres\.\w+)` \| (.+) \|$")


def export_rows():
    rows = []
    for line in README.read_text(encoding="utf-8").splitlines():
        match = ROW.match(line)
        if match:
            rows.append((match.group(1), re.findall(r"`(\w+)`", match.group(2))))
    return rows


def test_every_exporting_module_has_a_row():
    init = README.parent / "src" / "gridres" / "__init__.py"
    modules = re.findall(r"^from \.(\w+) import", init.read_text(encoding="utf-8"), re.M)
    assert modules
    rows = {name for name, _ in export_rows()}
    missing = sorted({f"gridres.{m}" for m in modules} - rows)
    assert not missing, f"README export table has no row for {missing}"


def test_export_table_names_exist():
    rows = export_rows()
    assert len(rows) >= 7
    for module_name, names in rows:
        module = importlib.import_module(module_name)
        assert names, module_name
        for name in names:
            assert hasattr(module, name), f"{module_name} has no {name}"
            obj = getattr(module, name)
            if hasattr(obj, "__module__"):
                assert obj.__module__ == module_name, f"{name} is defined in {obj.__module__}"


def package_imports():
    """{module: names} of the package's `from .module import ...` lines."""
    init = README.parent / "src" / "gridres" / "__init__.py"
    out = {}
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(f"gridres.{node.module}", set()).update(a.name for a in node.names)
    return out


def test_export_table_matches_package_imports():
    rows = {name: set(names) for name, names in export_rows()}
    imports = package_imports()
    assert len(imports) >= 7
    for module_name in sorted(rows.keys() | imports.keys()):
        table, imported = rows.get(module_name, set()), imports.get(module_name, set())
        assert table == imported, (
            f"{module_name}: in the README only {sorted(table - imported)}, "
            f"imported by the package only {sorted(imported - table)}")


def test_install_note_names_every_optional_test_dependency():
    """Each test module that skips without a package is named, with the
    package, in the README's install section."""
    text = README.read_text(encoding="utf-8")
    install = text.split("## Install", 1)[1].split("\n## ", 1)[0]
    install = " ".join(install.split())
    skipping = {}
    for path in sorted((README.parent / "tests").glob("test_*.py")):
        found = re.findall(r"pytest\.importorskip\(\"(\w+)\"\)", path.read_text(encoding="utf-8"))
        if found:
            skipping[path.name] = found
    assert "test_expr.py" in skipping and len(skipping) >= 6
    for name, packages in skipping.items():
        assert f"tests/{name}" in install, f"the install note does not name {name}"
        for package in packages:
            assert f"`{package}`" in install, f"the install note does not name {package}"


def test_readme_cover_node_count_is_what_the_search_counts():
    """The 3x3 node count the README's budget paragraph states is the
    fewest nodes `min_line_cover` decides that instance in."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    match = re.search(r"(\d+) instead of \d+ for a 3×3 grid minus a corner over Q", text)
    assert match, "the README's budget paragraph no longer states the 3x3 count"
    nodes = int(match.group(1))
    Q = Field.rationals()
    points = [ProjPoint.affine(Q, a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    corner = ProjPoint.affine(Q, 0, 0)
    assert min_line_cover(points, corner, Q, budget=nodes)[0] == 4
    with pytest.raises(BudgetExceededError):
        min_line_cover(points, corner, Q, budget=nodes - 1)
