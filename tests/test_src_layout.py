"""The package holds no helpers that only the tests use, and no NaN-blind guard.

Every top-level ``def`` and ``class`` in ``src/echochain`` must be used in
``src/`` besides its own definition (read from the code, not from docstrings),
or be exported by ``echochain/__init__.py``. A reference that only the tests
need belongs in ``tests/_oracles.py``.

No ``if`` in the package tests ``x > TOL`` against a float tolerance, which a NaN
passes.
"""

import ast
from pathlib import Path

import echochain

PACKAGE = Path(echochain.__file__).resolve().parent
# perfbench/trace_run.py times these two by name (TRACED), though only the tests call
# them; they move to tests/_oracles.py when the benchmark drops them.
TRACED_ONLY = {"chain.assemble_dense", "symmetry.sector_basis_matrix"}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def test_every_top_level_name_is_used_by_the_package():
    trees = _trees()
    exported = {
        alias.name
        for node in trees["__init__"].body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used | exported
    }
    assert unused == TRACED_ONLY


def _is_tolerance(node):
    return any(
        isinstance(name, ast.Name) and (name.id.endswith("_TOL") or name.id == "CAYLEY_NORM_CAP")
        for name in ast.walk(node)
    )


def test_tolerance_guards_refuse_nan():
    # `if x > TOL: raise` lets a NaN through, as every comparison with NaN is false;
    # `if not x <= TOL` refuses it. Integer caps (DENSE_DIM_CAP) never meet a NaN.
    blind = [
        f"{module}.py:{node.lineno}"
        for module, tree in sorted(_trees().items())
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.ops[0], ast.Gt)
        and _is_tolerance(node.test.comparators[0])
    ]
    assert blind == []
