"""The package's import graph: every intra-package import, including those
inside functions, read from the source with `ast`.  The graph stays acyclic,
and the oracle stays independent of the engine it checks."""

from __future__ import annotations

import ast
import graphlib
from pathlib import Path

import actualcause

PACKAGE_DIR = Path(actualcause.__file__).parent


def _imported_modules(tree: ast.AST) -> set[str]:
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.update(_package_module(node.module))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                found.update(_package_module(alias.name))
    return found


def _package_module(dotted: str) -> set[str]:
    parts = dotted.split(".")
    return {parts[1]} if parts[0] == "actualcause" and len(parts) > 1 else set()


def import_graph() -> dict[str, set[str]]:
    return {
        path.stem: _imported_modules(ast.parse(path.read_text(), str(path)))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }


def test_graph_sees_every_module():
    graph = import_graph()
    assert {"model", "normality", "sufficiency", "oracle"} <= graph.keys()
    assert set().union(*graph.values()) <= graph.keys()


def test_import_graph_is_acyclic():
    try:
        tuple(graphlib.TopologicalSorter(import_graph()).static_order())
    except graphlib.CycleError as error:
        raise AssertionError(f"import cycle: {' -> '.join(error.args[1])}") from None


def test_normality_does_not_import_sufficiency():
    assert "sufficiency" not in import_graph()["normality"]


def test_oracle_imports_only_expr_and_model():
    assert import_graph()["oracle"] <= {"expr", "model"}
