"""The package's import graph: every intra-package import, including those
inside functions, read from the source with `ast`.  The graph stays acyclic,
and the oracle stays independent of the engine it checks.  The model's
private state is read in `model.py` alone, and a name imported from a
sibling module is read or re-exported where it is imported.  No private
module-level helper outlives its last reader, and no `EngineOptions` field
is set by tests and scripts alone.  The CLI maps each input error to its exit
code once and reads its choice lists from the package."""

from __future__ import annotations

import ast
import dataclasses
import graphlib
from pathlib import Path

import actualcause
import actualcause.bench

PACKAGE_DIR = Path(actualcause.__file__).parent
ROOT = PACKAGE_DIR.parents[1]


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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _dead_private_names(sources: dict[str, str]) -> set[str]:
    """Each private module-level function, class or constant that nothing
    else in the package reads: not another top-level statement of its own
    module by name, not another module through an import, and not any
    module as an attribute."""
    defined: dict[tuple[str, str], int] = {}  # (module, name): defining statement
    read: set[tuple[str, str, int]] = set()  # (module, name, reading statement)
    attributes: set[str] = set()
    for module, source in sources.items():
        for index, statement in enumerate(ast.parse(source).body):
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [statement.name]
            elif isinstance(statement, ast.Assign):
                targets = [node.id for node in statement.targets if isinstance(node, ast.Name)]
            elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                targets = [statement.target.id]
            else:
                targets = []
            defined.update({(module, name): index for name in targets if _private(name)})
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add((module, node.id, index))
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    read.update((node.module, alias.name, -1) for alias in node.names)
    return {
        f"{module}.{name}"
        for (module, name), index in defined.items()
        if name not in attributes
        and not any(m == module and n == name and i != index for m, n, i in read)
    }


def test_no_private_helper_is_dead():
    # the check does see a helper that only its own body reads, and a
    # constant and a class that only an importing module reads
    assert _dead_private_names(
        {
            "a": "def _f():\n    return _f()\n_K = 1\nclass _C:\n    pass\n",
            "b": "from .a import _K, _C\n",
        }
    ) == {"a._f"}
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _dead_private_names(sources) == set()


def _option_keywords(source: str) -> set[str]:
    """The keywords passed in each `EngineOptions(...)` or
    `module.EngineOptions(...)` call of the source."""
    return {
        keyword.arg
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name)
            and node.func.id == "EngineOptions"
            or isinstance(node.func, ast.Attribute)
            and node.func.attr == "EngineOptions"
        )
        for keyword in node.keywords
    }


def test_every_engine_option_is_set_by_the_program():
    # An option that only tests and scripts set is a knob the program does
    # not need; the check does see both call forms.
    assert _option_keywords("EngineOptions(a=1)\nac.EngineOptions(b=2)") == {"a", "b"}
    paths = [
        path
        for directory in (ROOT / "src", ROOT / "perfbench")
        for path in sorted(directory.rglob("*.py"))
        if not path.name.startswith("test_")
    ]
    keywords = set().union(*(_option_keywords(path.read_text()) for path in paths))
    fields = {field.name for field in dataclasses.fields(actualcause.EngineOptions)}
    assert fields <= keywords


def _except_clauses(source: str) -> dict[str, int]:
    """How many `except` clauses of the source name each exception, alone
    or in a tuple."""
    counts: dict[str, int] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for name in caught:
                counts[ast.unparse(name)] = counts.get(ast.unparse(name), 0) + 1
    return counts


def _literal_choices(source: str) -> list[list[object]]:
    """The literal list or tuple passed to each `click.Choice(...)` call."""
    return [
        list(ast.literal_eval(node.args[0]))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "click.Choice"
        and node.args
        and isinstance(node.args[0], (ast.List, ast.Tuple))
    ]


def test_cli_maps_each_input_error_once():
    # the check does see a handler in a tuple and one on its own
    assert _except_clauses(
        "try:\n    f()\nexcept (A, B):\n    pass\nexcept A:\n    pass\n"
    ) == {"A": 2, "B": 1}
    counts = _except_clauses((PACKAGE_DIR / "cli.py").read_text())
    assert counts.get("ParseError") == 1
    assert counts.get("SearchTooLargeError") == 1


def test_cli_reads_its_choice_lists_from_the_package():
    # the check does see a literal list and a literal tuple
    assert _literal_choices('click.Choice(["a"])\nclick.Choice(("b",))\nclick.Choice(X)') == [
        ["a"],
        ["b"],
    ]
    owned = [
        list(actualcause.bench.FORMATS),
        list(actualcause.EngineOptions.VARIANTS),
        list(actualcause.Scenario.MODES),
    ]
    literals = _literal_choices((PACKAGE_DIR / "cli.py").read_text())
    assert literals  # the CLI's own `--definition` list
    assert not [choices for choices in literals if choices in owned]
