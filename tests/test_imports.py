"""Module boundaries inside the package.

Each module uses only the public names of the other package modules, and
the pmf walk's mass floor, the series tolerance, the series term cap and
the Laurent division-by-zero error are each written in one place, as are
the Laurent convolution and normal form, the identity pass/fail rule and
the question of which class a scalar mode is.  Every catalogue identity is
a module-level generator.  The package imports nothing outside the standard
library.
"""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qwhitney"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = {path.stem for path in SOURCES}


def _private_uses(path: pathlib.Path) -> list[str]:
    """Private names that path takes from another package module.

    Both `from .mod import _name` and `mod._name`, where `mod` was bound by
    `from . import mod`, count.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = set()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("qwhitney"):
            continue
        for alias in node.names:
            if node.module in (None, "qwhitney") and alias.name in MODULES:
                modules.add(alias.asname or alias.name)
            elif alias.name.startswith("_"):
                found.append(f"{node.lineno}: {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_uses_a_private_name_of_another(path):
    assert _private_uses(path) == []


def test_the_scan_sees_both_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import qcore\nfrom .qdist import _pmf_stream, pmf\n"
                     "from math import _private\nx = qcore._series\ny = qcore.q_exp\n",
                     encoding="utf-8")
    assert _private_uses(probe) == ["2: qdist._pmf_stream", "4: qcore._series"]


def test_the_mass_floor_is_written_in_one_module():
    holders = [path.name for path in SOURCES if "1.0 - 1e-12" in path.read_text(encoding="utf-8")]
    assert holders == ["qdist.py"]


def test_the_series_tolerance_is_written_in_one_module():
    holders = [path.name for path in SOURCES
               if path.read_text(encoding="utf-8").replace("1.0 - 1e-12", "").count("1e-12")]
    assert holders == ["qcore.py"]


def test_the_term_cap_is_written_in_one_module():
    holders = [path.name for path in SOURCES if "10**6" in path.read_text(encoding="utf-8")]
    assert holders == ["qcore.py"]


def test_laurent_division_by_zero_is_raised_in_one_place():
    texts = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert sum(text.count("Laurent division by zero") for text in texts) == 1


def _callers(path: pathlib.Path, name: str) -> list[str]:
    """Sorted names of the innermost functions in path that call name ("" at module level)."""
    callers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == name):
                callers.add(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return sorted(callers)


def test_every_laurent_ring_result_is_normalised_in_one_place():
    laurent = PACKAGE / "laurent.py"
    assert _callers(laurent, "_convolve") == ["sum_of_products"]
    assert _callers(laurent, "_fill") == ["__init__", "_from_ints", "sum_of_products"]
    assert "__pow__" in _callers(laurent, "sum_of_products")
    # Division returns through _from_ints, on ints: no rebuild through __init__'s lcm.
    assert _callers(laurent, "LaurentPoly") == ["", "q_monomial"]
    exact_div = next(node for node in ast.walk(ast.parse(laurent.read_text(encoding="utf-8")))
                     if isinstance(node, ast.FunctionDef) and node.name == "exact_div")
    assert not any(isinstance(node, ast.Name) and node.id == "Fraction"
                   for node in ast.walk(exact_div))


def test_every_identity_report_is_built_by_the_one_pass_fail_rule():
    builders = {path.name: _callers(path, "IdentityReport") for path in SOURCES}
    assert {name: owners for name, owners in builders.items() if owners} == {
        "report.py": ["checked"]}


MODE_CLASSES = {"_SymbolicQ", "RationalQ", "FloatQ"}


def _mode_class_questions(path: pathlib.Path) -> list[str]:
    """Lines of path that read `.tag` or call isinstance/issubclass against a mode class."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr == "tag":
            found.append(f"{node.lineno}: .tag")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2):
            names = {getattr(sub, "id", getattr(sub, "attr", None))
                     for sub in ast.walk(node.args[1])}
            found += [f"{node.lineno}: {node.func.id} {name}"
                      for name in sorted(names & MODE_CLASSES)]
    return found


def test_only_the_modes_module_asks_a_mode_for_its_class(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import modes\nfrom .modes import FloatQ\nx = isinstance(m, FloatQ)\n"
                     "y = isinstance(m, (int, modes.RationalQ))\nz = m.tag\n"
                     "w = isinstance(m, LaurentPoly)\n", encoding="utf-8")
    assert _mode_class_questions(probe) == [
        "3: isinstance FloatQ", "4: isinstance RationalQ", "5: .tag"]
    askers = {path.name: _mode_class_questions(path) for path in SOURCES}
    assert {name: lines for name, lines in askers.items() if lines and name != "modes.py"} == {}


def _nested_functions(path: pathlib.Path) -> list[str]:
    """"outer.inner" for each function of path defined inside another, at any depth."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for outer in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(outer, defs):
            found += [f"{outer.name}.{inner.name}" for inner in ast.walk(outer)
                      if inner is not outer and isinstance(inner, defs)]
    return found


def test_every_catalogue_entry_is_a_module_level_generator(tmp_path):
    # An entry that needs a table key takes it as an argument and the one
    # _CHECKERS table binds it, so no factory closes a key over a nested cells.
    probe = tmp_path / "probe.py"
    probe.write_text("def f():\n    def g():\n        async def h():\n            pass\n"
                     "    x = lambda: 0\n", encoding="utf-8")
    assert _nested_functions(probe) == ["f.g", "f.h", "g.h"]
    assert _nested_functions(PACKAGE / "identities.py") == ["_checker.check"]


def _absolute_imports(path: pathlib.Path) -> list[str]:
    """Top-level names of the modules that path imports absolutely, anywhere in it."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_the_runtime_imports_only_the_standard_library(path):
    assert [name for name in _absolute_imports(path)
            if name not in sys.stdlib_module_names] == []


def test_the_import_scan_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os.path, json\nfrom . import qcore\nfrom sympy import Poly\n"
                     "def f():\n    import numpy as np\n", encoding="utf-8")
    assert _absolute_imports(probe) == ["os", "json", "sympy", "numpy"]
