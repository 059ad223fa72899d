"""Shared fixtures: corpus access, a compact scenario builder and random
expressions."""

from __future__ import annotations

import importlib.resources
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from actualcause import (
    Binary,
    Const,
    Domain,
    Model,
    Not,
    Piecewise,
    Scenario,
    Var,
    parse_case,
    parse_expression,
)
from actualcause import model, sufficiency
from actualcause.expr import BINARY_PREC, CMP_OPS


def corpus_dir() -> Path:
    return Path(str(importlib.resources.files("actualcause"))) / "corpus"


# 22 initial xi=0 feed 11 two-input ANDs, and e=~(y0|...|y10) is 1.  The
# effect has 2**22 settings of its initial ancestors, past ENUMERATION_CAP =
# 2**20, yet no equation has more than 11 parents, so the model itself builds.
WIDE_FORMULAS = "; ".join(
    [f"x{i}=0" for i in range(22)]
    + [f"y{i}=x{2 * i} & x{2 * i + 1}" for i in range(11)]
    + ["e=~(" + " | ".join(f"y{i}" for i in range(11)) + ")"]
)


def copy_chain(links: int) -> str:
    """x0=0; x1=x0; ...: each of the `links` later variables copies the one
    before it, so a reliable-mode walk over the last one's ancestors has
    2**links candidate sets but an empty set that roams x0 alone."""
    return "; ".join(["x0=0"] + [f"x{i}=x{i - 1}" for i in range(1, links + 1)])


def grouped_conjunction(*widths: int) -> str:
    """Every xi=1; each yg conjoins the next `width` xi, and e conjoins the
    yg.  With defaults 0, every xi and yg is an off-default ancestor of e."""
    formulas, groups, start = [], [], 0
    for g, width in enumerate(widths):
        members = [f"x{i}" for i in range(start, start + width)]
        formulas += [f"{x}=1" for x in members] + [f"y{g}=" + " & ".join(members)]
        groups.append(f"y{g}")
        start += width
    return "; ".join(formulas + ["e=" + " & ".join(groups)])


def tree(k: int) -> str:
    """2**k leaves li=1 joined in pairs, level by level, up to one top join,
    which e copies.  A join at even depth is `&` and at odd depth `|`,
    counting the top join as depth 0, so tree(2) is
    e = (l0 | l1) & (l2 | l3)."""
    formulas = [f"l{i}=1" for i in range(2**k)]
    level = [f"l{i}" for i in range(2**k)]
    for depth in reversed(range(k)):
        op = " & " if depth % 2 == 0 else " | "
        joins = [f"t{len(formulas) - 2**k + i}" for i in range(len(level) // 2)]
        formulas += [f"{t}={level[2 * i]}{op}{level[2 * i + 1]}" for i, t in enumerate(joins)]
        level = joins
    return "; ".join(formulas + [f"e={level[0]}"])


def or_of_ands(groups: int, width: int) -> str:
    """`groups` conjunctions of `width` initial xNN=1 each, joined by `|`
    straight into e, so e's table has all groups * width of them as
    parents; e's minimal sufficient sets are the groups."""
    names = [[f"x{g * width + i:02d}" for i in range(width)] for g in range(groups)]
    terms = ["(" + " & ".join(group) + ")" for group in names]
    return "; ".join([f"{x}=1" for group in names for x in group] + ["e=" + " | ".join(terms)])


def lattice(width: int, depth: int) -> str:
    """`depth` rows of `width` columns: ai_j for row i and column j.  Row 0
    is a0_j=1; each later ai_j joins a(i-1)_j to a(i-1)_(j+1 mod width), by
    `|` on odd rows and `&` on even ones, and e is the `&` of the last row."""
    formulas = [f"a0_{j}=1" for j in range(width)]
    for i in range(1, depth):
        op = " | " if i % 2 else " & "
        formulas += [
            f"a{i}_{j}=a{i - 1}_{j}{op}a{i - 1}_{(j + 1) % width}" for j in range(width)
        ]
    last = " & ".join(f"a{depth - 1}_{j}" for j in range(width))
    return "; ".join(formulas + [f"e={last}"])


def _piecewise(children):
    cases = st.lists(st.tuples(children, children), min_size=1, max_size=3)
    return cases.map(lambda pairs: Piecewise(tuple(pairs)))


# Random expressions over a, b, c and d with small constants and every
# binary operator: division and remainder by zero and piecewise forms with no
# true guard occur often.
EXPRESSIONS = st.recursive(
    st.one_of(st.sampled_from("abcd").map(Var), st.integers(-1, 2).map(Const)),
    lambda children: st.one_of(
        children.map(Not),
        st.builds(Binary, st.sampled_from(sorted(BINARY_PREC)), children, children),
        _piecewise(children),
    ),
    max_leaves=14,
)
POOLS = st.lists(st.integers(-2, 3), min_size=1, max_size=3, unique=True)

# Trees that `value_table` can evaluate bit-parallel: over a to e, each drawn
# from a pool inside {0, 1}, with only the operators and constants that have
# a bitwise form.  Nested under `+` or a piecewise form, they must be
# evaluated one setting at a time instead.
BINARY_POOLS = st.sampled_from([(0, 1), (1, 0), (0,), (1,)])
BIT_NAMES = "abcde"
BIT_OPS = ("|", "&", *CMP_OPS)
BIT_EXPRESSIONS = st.recursive(
    st.sampled_from([*map(Var, BIT_NAMES), Const(0), Const(1)]),
    lambda children: st.one_of(
        children.map(Not),
        st.builds(Binary, st.sampled_from(BIT_OPS), children, children),
    ),
    max_leaves=14,
)
NESTED_BIT_EXPRESSIONS = st.one_of(
    BIT_EXPRESSIONS,
    st.builds(Binary, st.just("+"), BIT_EXPRESSIONS, BIT_EXPRESSIONS),
    _piecewise(BIT_EXPRESSIONS),
)


def make_scenario(
    formulas: str,
    domains: dict[str, tuple[int, ...]] | None = None,
    defaults: dict[str, int] | None = None,
    intentions: tuple[tuple[str, str], ...] = (),
    mode: str = "reliable",
) -> Scenario:
    """Build a scenario from 'a=1; b=a; e=a & b' style text."""
    names: list[str] = []
    equations = {}
    for part in formulas.split(";"):
        var, _, body = part.partition("=")
        names.append(var.strip())
        equations[var.strip()] = parse_expression(body.strip())
    doms = {var: Domain(tuple(values)) for var, values in (domains or {}).items()}
    model = Model(tuple(names), equations, doms)
    return Scenario(model, mode=mode, defaults=defaults or {}, intentions=intentions)


def counting_calls(monkeypatch, module, name: str, calls: list | None = None) -> list:
    """Every call to `module.<name>`, its positional arguments recorded from
    now on, in `calls` if given; `module` may also be a class, to count a
    method's calls.  The searches call `solve` and the other kernels by
    module-level name, so rebinding the name in the calling module sees
    every call it makes."""
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def counting_work(monkeypatch) -> list:
    """The work the sufficiency searches do from now on: an entry for each
    world solve (`sufficiency.solve`), one for each table read whole
    (`sufficiency._closure`, computed once per scenario and target), and one
    for each value-table row that `sufficiency` reads itself.  Rows are seen
    on models built from now on, whose tables of variables with parents
    record each read made from a frame of `actualcause.sufficiency`; the
    reads inside `solve` and `Model.lookup` are not counted, and neither is
    a table's whole read in one join over its rows or through its bit
    column."""
    work = counting_calls(monkeypatch, sufficiency, "solve")
    counting_calls(monkeypatch, sufficiency, "_closure", work)
    searches = vars(sufficiency)

    class Rows(list):
        def __getitem__(self, code):
            if sys._getframe(1).f_globals is searches:
                work.append(code)
            return list.__getitem__(self, code)

    tabulate = model.value_table

    def counting(*args):
        table, values, bits = tabulate(*args)
        return Rows(table), values, bits

    monkeypatch.setattr(model, "value_table", counting)
    return work


@pytest.fixture(scope="session")
def corpus_path() -> Path:
    path = corpus_dir()
    assert path.is_dir(), f"corpus directory missing: {path}"
    return path


@pytest.fixture(scope="session")
def corpus_cases(corpus_path: Path) -> dict[str, object]:
    """All benchmark cases keyed by two-digit id."""
    cases = {}
    for case_file in sorted(corpus_path.glob("*.case")):
        case = parse_case(case_file.read_text(encoding="utf-8"))
        cases[case.id] = case
    return cases
