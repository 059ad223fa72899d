"""The per-scenario memo: exactness, copies, fresh memos, and compute-once.

Minimal sufficient sets, direct-cause sets and plan abnormality are
computed once per scenario and argument tuple.  These tests check that
sharing one scenario gives the same answers as a fresh scenario per call,
that callers cannot corrupt the memo, and that no memo key is ever computed
twice on one scenario.  The chain searches that read the memo are checked
against brute-force chain enumeration.
"""

from __future__ import annotations

import ast
import dataclasses
import gc
import random
import weakref
from collections import Counter
from pathlib import Path

import pytest

import actualcause
from actualcause import (
    EngineOptions,
    Event,
    NoChainError,
    NoParentsError,
    ReasoningError,
    SearchTooLargeError,
    analyze,
    cause_nets,
    causes_of,
    direct_cause_graph,
    direct_cause_sets,
    distance,
    extrapolate,
    flank,
    hph_causes,
    intentional_causes,
    interpolate,
    is_sufficient,
    minimal_sufficient_sets,
    parse_case,
    plan_abnormality,
)
from actualcause import normality, reasoning, sufficiency
from actualcause.randmodel import random_effect, random_scenario, scenario_stream

from conftest import WIDE_FORMULAS, corpus_dir, make_scenario

NETS_KEPT = 20
PRIME = EngineOptions(abnormality_variant="3prime")


def _attempt(operation, *args):
    try:
        return operation(*args)
    except ReasoningError as err:
        return type(err).__name__, str(err)


def net_queries(scenario_for, effect) -> list:
    """The random-nets benchmark query, plus the engine's other abnormality
    variant; `scenario_for()` supplies the scenario of each call."""
    out: list = [intentional_causes(scenario_for(), effect)]
    out.append(causes_of(scenario_for(), effect, PRIME))
    out.append(hph_causes(scenario_for(), effect))
    try:
        nets = cause_nets(scenario_for(), effect)[:NETS_KEPT]
    except (ReasoningError, NoParentsError) as err:
        return out + [type(err).__name__]
    for net in nets:
        out += [net, _attempt(distance, scenario_for(), net, effect)]
        for member in sorted(net.events):
            for operation in (interpolate, extrapolate, flank):
                out.append(_attempt(operation, scenario_for(), net, member, effect))
    return out


def memo_queries() -> list:
    """Runs the corpus queries and `net_queries` on a few stream models and a
    lattice, each on one shared scenario, and returns those scenarios."""
    scenarios = []
    for path in sorted(corpus_dir().glob("*.case")):
        case = parse_case(path.read_text(encoding="utf-8"))
        intentional_causes(case.scenario, case.effect)
        causes_of(case.scenario, case.effect)
        hph_causes(case.scenario, case.effect)
        scenarios.append(case.scenario)
    for _, scenario in scenario_stream(1, 3, max_vars=7):
        net_queries(lambda: scenario, random_effect(scenario))
        scenarios.append(scenario)
    # the three random queries never count chains; this one does
    lattice = make_scenario("a=1; b=a; c=a & b; d=b | c; f=c & d; e=d & f & b")
    net_queries(lambda: lattice, Event("e", 1))
    return scenarios + [lattice]


def test_shared_scenario_matches_fresh_scenarios():
    for _, scenario in scenario_stream(31, 40, max_vars=7):
        effect = random_effect(scenario)
        fresh = net_queries(lambda: dataclasses.replace(scenario), effect)
        assert net_queries(lambda: scenario, effect) == fresh
        assert scenario._memo  # the shared run filled the memo ...
        assert net_queries(lambda: scenario, effect) == fresh  # ... and reads it


class TestCopies:
    def test_mutating_results_leaves_the_memo_intact(self):
        scenario = make_scenario("a=1; b=1; c=a | b; e=c & a")
        effect = Event("e", 1)
        target = Event("c", 1)
        calls = [
            lambda: minimal_sufficient_sets(scenario, effect),
            lambda: direct_cause_sets(scenario, target),
            lambda: direct_cause_graph(scenario),
        ]
        for call in calls:
            first = call()
            expected = call()
            assert first == expected and first is not expected
            first.clear()
            assert call() == expected


def test_replace_starts_with_an_empty_memo():
    reliable = make_scenario("a=1; b=a; e=b")
    effect = Event("e", 1)
    sets = minimal_sufficient_sets(reliable, effect)
    assert reliable._memo
    general = dataclasses.replace(reliable, mode="general")
    assert general._memo == {}
    assert minimal_sufficient_sets(general, effect) == minimal_sufficient_sets(
        make_scenario("a=1; b=a; e=b", mode="general"), effect
    )
    assert minimal_sufficient_sets(general, effect) != sets


def test_memo_keys_hold_every_argument():
    scenario = make_scenario("a=1; b=1; e=a & b")
    effect = Event("e", 1)
    results = {
        (pins, target): plan_abnormality(scenario, pins, target)
        for pins in (("a",), ("b",), ("a", "b"))
        for target in (effect, Event("e", 0))
    }
    # the three plans pass for e=1 with different witnesses; all fail for e=0
    assert len(set(results.values())) == 4
    for (pins, target), result in results.items():
        fresh = dataclasses.replace(scenario)
        assert result == plan_abnormality(fresh, pins, target)
    assert minimal_sufficient_sets(scenario, effect)
    # a search past ENUMERATION_CAP raises before it tries a setting, and
    # leaves no memo entry behind
    wide = make_scenario(WIDE_FORMULAS)
    with pytest.raises(SearchTooLargeError):
        minimal_sufficient_sets(wide, Event("e", 1))
    assert wide._memo == {}


def _holds_a_callable(value) -> bool:
    return callable(value) or (
        isinstance(value, tuple) and any(callable(item) for item in value)
    )


def test_the_memo_holds_answers_only():
    # Kernels are built per question: no memo value is a search kernel or a
    # tuple carrying one.
    values = [value for scenario in memo_queries() for value in scenario._memo.values()]
    assert values
    assert not [value for value in values if _holds_a_callable(value)]


# e's minimal sufficient sets are stored; then the abnormality search over
# the plan {a} roams the ten off-default zi, (2 - 1) * 2**10 = 1024 worlds.
ROAMING_WIDE = "; ".join(["a=1", "b=a", "e=b & a"] + [f"z{i}=1" for i in range(10)])
# counting e's chains stores e's closure and direct-cause sets, then p's
# closure checks its 2**10 parent sets against the cap
PARENT_WIDE = "; ".join(
    [f"x{i}=1" for i in range(10)]
    + ["p=" + " & ".join(f"x{i}" for i in range(10)), "q=1", "e=p & q"]
)


@pytest.mark.parametrize(
    "formulas, query, stored",
    [
        (ROAMING_WIDE, causes_of, {"_sets"}),
        (
            PARENT_WIDE,
            lambda scenario, effect: distance(scenario, frozenset({Event("q", 1)}), effect),
            {"_closure", "_direct_cause_sets"},
        ),
    ],
    ids=["causes_of", "distance"],
)
def test_a_call_that_raises_keeps_only_complete_answers(monkeypatch, formulas, query, stored):
    # The query raises past the lowered cap after the searches it ran first
    # stored their answers; `distance` raises inside `_count_chains`, which
    # stores nothing.  Once the cap is back, the scenario answers as a
    # fresh one does.
    scenario = make_scenario(formulas)
    effect = Event("e", 1)
    monkeypatch.setattr("actualcause.model.ENUMERATION_CAP", 1 << 8)
    with pytest.raises(SearchTooLargeError):
        query(scenario, effect)
    assert {compute.__name__ for compute, *_ in scenario._memo} == stored
    monkeypatch.undo()
    assert query(scenario, effect) == query(dataclasses.replace(scenario), effect)
    fresh = net_queries(lambda: dataclasses.replace(scenario), effect)
    assert net_queries(lambda: scenario, effect) == fresh


def test_a_scenario_is_freed_without_the_cycle_collector():
    # The memo holds answers only, so nothing in it refers back to its
    # scenario; e has a derived parent, so its kernel solves worlds.
    gc.disable()
    try:
        scenario = make_scenario("a=1; b=a; e=b & a")
        effect = Event("e", 1)
        assert is_sufficient(scenario, {Event("a", 1)}, effect)
        assert minimal_sufficient_sets(scenario, effect)
        freed = weakref.ref(scenario)
        del scenario
        assert freed() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Chain counting against brute-force enumeration
# ---------------------------------------------------------------------------


def brute_chains(successors, start: str, goal: str) -> list[tuple[str, ...]]:
    """Every direct-cause chain from start to goal, in lexicographic order."""
    if start == goal:
        return [(start,)]
    out: list[tuple[str, ...]] = []
    stack: list[str] = [start]

    def walk(vertex: str) -> None:
        for succ in successors[vertex]:
            stack.append(succ)
            if succ == goal:
                out.append(tuple(stack))
            else:
                walk(succ)
            stack.pop()

    walk(start)
    return out


def brute_successors(scenario) -> dict[str, list[str]]:
    successors: dict[str, list[str]] = {v: [] for v in scenario.model.variables}
    for child, parents in direct_cause_graph(dataclasses.replace(scenario)).items():
        for parent in parents:
            successors[parent].append(child)
    return {var: sorted(children) for var, children in successors.items()}


def brute_distance(successors, net, effect) -> float | None:
    lengths: list[int] = []
    for member in sorted(net):
        chains = brute_chains(successors, member.var, effect.var)
        if not chains:
            return None
        lengths.extend(len(chain) - 1 for chain in chains)
    return sum(lengths) / len(lengths)


def check_against_brute_force(scenario, effect) -> None:
    successors = brute_successors(scenario)
    actual = scenario.actual()
    singles = [frozenset({Event(v, actual[v])}) for v in scenario.model.variables]
    try:
        nets = [net.events for net in cause_nets(scenario, effect)[:NETS_KEPT]]
    except NoParentsError:
        nets = []
    for events in singles + nets:
        expected = brute_distance(successors, events, effect)
        if expected is None:
            with pytest.raises(NoChainError):
                distance(scenario, events, effect)
        else:
            assert distance(scenario, events, effect) == expected
    for events in nets:
        for member in sorted(events):
            if member.var == effect.var:
                continue
            chains = brute_chains(successors, member.var, effect.var)
            if not chains:
                with pytest.raises(NoChainError):
                    interpolate(scenario, events, member, effect)
                continue
            step = {Event(chain[1], actual[chain[1]]) for chain in chains}
            moved = interpolate(scenario, events, member, effect)
            assert moved.events == (events - {member}) | step


def test_chain_counts_match_enumeration_on_random_models():
    for _, scenario in scenario_stream(37, 60, max_vars=7):
        check_against_brute_force(scenario, random_effect(scenario))


def test_chain_counts_match_enumeration_on_a_lattice():
    # Many chains of different lengths from a to e.
    scenario = make_scenario("a=1; b=a; c=a & b; d=b | c; f=c & d; e=d & f & b")
    check_against_brute_force(scenario, Event("e", 1))
    # A model from the verification stream whose extrapolation leaves the
    # chain graph (see TestKnownLimitation in test_reasoning.py).
    scenario = random_scenario(random.Random("202:74"))
    check_against_brute_force(scenario, random_effect(scenario))


def brute_chain(analysis, successors, var: str) -> tuple[str, ...] | None:
    """The shortest, then lexicographically smallest, chain from var to the
    effect whose intermediate vertices all pass the chain rule."""
    scenario = analysis.scenario

    def admissible(vertex: str) -> bool:
        target = Event(vertex, scenario.actual_value(vertex))
        return any(
            var in {ev.var for ev in events}
            and plan_abnormality(scenario, {ev.var for ev in events}, target).passed
            for events in minimal_sufficient_sets(scenario, target)
        )

    chains = [
        chain
        for chain in brute_chains(successors, var, analysis.effect.var)
        if all(admissible(vertex) for vertex in chain[1:-1])
    ]
    return min(chains, key=lambda chain: (len(chain), chain), default=None)


def check_chains_against_brute_force(scenario, effect) -> None:
    # the chain rule reads no engine option, so one analysis covers both variants
    successors = brute_successors(scenario)
    analysis = analyze(scenario, effect)
    for var in scenario.model.variables:
        assert analysis.chain_for(var) == brute_chain(analysis, successors, var), var


def test_chains_match_enumeration_on_random_models():
    for _, scenario in scenario_stream(37, 60, max_vars=7):
        check_chains_against_brute_force(scenario, random_effect(scenario))


def test_chains_match_enumeration_on_the_corpus():
    for path in sorted(corpus_dir().glob("*.case")):
        case = parse_case(path.read_text(encoding="utf-8"))
        check_chains_against_brute_force(case.scenario, case.effect)


# ---------------------------------------------------------------------------
# Compute-once regression gate
# ---------------------------------------------------------------------------

UNCACHED = (
    (sufficiency, "_sets"),
    (sufficiency, "_closure"),
    (sufficiency, "_is_sufficient"),
    (sufficiency, "_direct_cause_sets"),
    (normality, "_plan_abnormality"),
    (reasoning, "_count_chains"),
)


def memoized_computes() -> set[tuple[str, str]]:
    """(module, function) for every `compute` passed to `memoized` in the
    package, read from the source with `ast`."""
    found = set()
    for path in sorted(Path(actualcause.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and "memoized" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                compute = node.args[1]
                assert isinstance(compute, ast.Name), (path.name, ast.dump(compute))
                found.add((path.stem, compute.id))
    return found


def test_no_memo_key_is_computed_twice(monkeypatch):
    # the list is every function the package memoizes, no more and no fewer
    listed = {(module.__name__.rpartition(".")[2], name) for module, name in UNCACHED}
    assert listed == memoized_computes()
    computed: Counter = Counter()
    alive: list = []  # keeps every scenario alive, so ids are never reused

    def counting(name, compute):
        def wrapper(scenario, *args):
            alive.append(scenario)
            computed[(id(scenario), name, args)] += 1
            return compute(scenario, *args)

        return wrapper

    for module, name in UNCACHED:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))

    memo_queries()

    assert {name for _, name, _ in computed} == {name for _, name in UNCACHED}
    repeated = [key for key, count in computed.items() if count > 1]
    assert repeated == []
