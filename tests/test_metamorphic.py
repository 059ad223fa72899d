"""Relations the definitions imply, checked without the oracle, on models
the oracle is too slow for.  Each search visits candidates in an order
(declaration order, sorted names, ascending masks) and prunes on what it
has met; no answer may depend on that order, and every answer must hold up
when checked against `is_sufficient` directly."""

from __future__ import annotations

import random

import pytest

from actualcause import (
    Binary,
    Const,
    EngineOptions,
    Event,
    Model,
    Not,
    Piecewise,
    Scenario,
    Var,
    causes_of,
    hph_causes,
    is_sufficient,
    minimal_sufficient_sets,
    parse_case,
)
from actualcause.randmodel import scenario_stream

from conftest import corpus_dir, grouped_conjunction, lattice, make_scenario, tree

OPTION_SETS = (
    EngineOptions(),
    EngineOptions(abnormality_variant="3prime"),
    EngineOptions(continuity="chain-certified"),
)


def rename_expr(expr, names):
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return Var(names[expr.name])
    if isinstance(expr, Not):
        return Not(rename_expr(expr.operand, names))
    if isinstance(expr, Binary):
        return Binary(expr.op, rename_expr(expr.left, names), rename_expr(expr.right, names))
    return Piecewise(
        tuple((rename_expr(v, names), rename_expr(guard, names)) for v, guard in expr.cases)
    )


def renamed(scenario: Scenario, rng: random.Random) -> tuple[Scenario, dict[str, str]]:
    """The scenario with every variable renamed, in a random sorted order,
    and declared in a random order; and the renaming."""
    model = scenario.model
    ranks = list(range(len(model.variables)))
    rng.shuffle(ranks)
    names = {v: f"v{rank:02d}" for v, rank in zip(model.variables, ranks)}
    declared = list(model.variables)
    rng.shuffle(declared)
    model = Model(
        [names[v] for v in declared],
        {names[v]: rename_expr(model.equations[v], names) for v in declared},
        {names[v]: model.domains[v] for v in declared},
    )
    return (
        Scenario(
            model,
            mode=scenario.mode,
            defaults={names[v]: value for v, value in scenario.defaults.items()},
            intentions=tuple((names[i], names[a]) for i, a in scenario.intentions),
        ),
        names,
    )


def assert_maps_over_a_renaming(scenario: Scenario, effect: Event, rng: random.Random) -> None:
    other, names = renamed(scenario, rng)

    def events(found):
        return frozenset(Event(names[ev.var], ev.value) for ev in found)

    target = Event(names[effect.var], effect.value)
    for options in OPTION_SETS:
        assert causes_of(other, target, options) == events(causes_of(scenario, effect, options))
    assert set(minimal_sufficient_sets(other, target)) == set(
        map(events, minimal_sufficient_sets(scenario, effect))
    )
    assert hph_causes(other, target).events == events(hph_causes(scenario, effect).events)


def test_renaming_and_reordering_the_corpus():
    rng = random.Random(0)
    cases = 0
    for path in sorted(corpus_dir().glob("*.case")):
        case = parse_case(path.read_text(encoding="utf-8"))
        for _ in range(3):
            assert_maps_over_a_renaming(case.scenario, case.effect, rng)
        cases += 1
    assert cases == 66


@pytest.mark.parametrize("mode", ["reliable", "general"])
def test_renaming_and_reordering_random_models(mode):
    rng = random.Random(1)
    for _, scenario in scenario_stream(seed=31, count=300, max_vars=10, mode=mode):
        model = scenario.model
        effect = Event(model.variables[-1], scenario.actual_value(model.variables[-1]))
        assert_maps_over_a_renaming(scenario, effect, rng)


@pytest.mark.parametrize("mode", ["reliable", "general"])
@pytest.mark.parametrize(
    "formulas",
    [tree(3), grouped_conjunction(5, 5), lattice(4, 4)],
    ids=["tree(2^3)", "grouped_conjunction(5, 5)", "lattice 4x4"],
)
def test_each_minimal_sufficient_set_is_sufficient_and_minimal(formulas, mode):
    scenario = make_scenario(formulas, mode=mode)
    for var in scenario.model.variables:
        effect = Event(var, scenario.actual_value(var))
        sets = minimal_sufficient_sets(scenario, effect)
        assert sets, var
        for events in sets:
            assert is_sufficient(scenario, events, effect), (var, events)
            for member in events:
                assert not is_sufficient(scenario, events - {member}, effect), (var, member)
