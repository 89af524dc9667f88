"""``src/flowalign`` holds what the engines, the CLI and the benchmark run.

The explicit LP objects that only the tests read (the product and trace
nets, single firings, the node-arc incidence, the MILP and the TU
certificate) live in ``tests/explicit_lp.py``: the package never imports
from the tests, and defines none of those names again.
"""

import ast
from pathlib import Path

import flowalign

TESTS = Path(__file__).resolve().parent
# Names the package gave these objects before they moved beside the tests.
FORMER_NAMES = {"_det_int", "_split", "from_incidence", "x", "net"}


def package_trees():
    for path in sorted(Path(flowalign.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def test_no_package_module_imports_from_the_tests():
    test_modules = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            assert not {m.split(".")[0] for m in modules} & test_modules, (name, modules)


def test_moved_names_are_not_defined_in_the_package():
    moved = FORMER_NAMES | {
        node.name
        for node in ast.parse((TESTS / "explicit_lp.py").read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert {"tu_certificate", "build_milp_matrices", "node_arc_incidence", "product_net", "fire"} <= moved
    for name, tree in package_trees():
        defined = {
            node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert not defined & moved, (name, defined & moved)
    assert not set(vars(flowalign)) & moved  # nor exports them
