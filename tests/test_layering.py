"""The package's import graph: every intra-package import, including those
inside functions, read from the source with `ast`.  The graph stays acyclic,
and the oracle stays independent of the engine it checks.  The model's
private state is read in `model.py` alone, and a name imported from a
sibling module is read or re-exported where it is imported."""

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


def test_oracle_takes_only_the_model_types():
    # not `minimal_passing_sets`, `solve`, `memoized` or `check_search_size`:
    # the oracle searches and solves on its own
    tree = ast.parse((PACKAGE_DIR / "oracle.py").read_text())
    from_model = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level == 1 and node.module == "model" or node.module == "actualcause.model")
        for alias in node.names
    }
    assert "Model" in from_model  # the check does see the import
    assert from_model <= {"Event", "Model", "Scenario"}


def _private_reads(path: Path) -> set[str]:
    """Each `obj._name` read in the module where obj is not self or cls;
    dunders are public protocol, not private state."""
    return {
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    }


def test_private_model_state_is_read_only_in_model():
    # the check does see model.py's own reads, such as the scenario memo
    own = _private_reads(PACKAGE_DIR / "model.py")
    assert any(read.endswith("scenario._memo") for read in own)
    others = [path for path in sorted(PACKAGE_DIR.glob("*.py")) if path.stem != "model"]
    assert set().union(*map(_private_reads, others)) == set()


# imported and unused: perfbench's test_tracer_wraps_names_in_every_importing_module
# looks the name up in `sufficiency`
UNUSED_IMPORTS_KEPT = {"sufficiency.plan_abnormality"}


def _unused_sibling_imports(path: Path) -> set[str]:
    """Each name the module imports from a sibling module (at any depth)
    that it neither reads nor lists in its `__all__`."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for name in ast.literal_eval(node.value)
    }
    return {f"{path.stem}.{name}" for name in imported - read - exported}


def test_every_sibling_import_is_used_or_exported():
    # the check does see a kept import
    assert _unused_sibling_imports(PACKAGE_DIR / "sufficiency.py") == UNUSED_IMPORTS_KEPT
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert set().union(*map(_unused_sibling_imports, paths)) == UNUSED_IMPORTS_KEPT
