"""Relations the definitions imply, checked without the oracle, on models
the oracle is too slow for.  Each search visits candidates in an order
(declaration order, sorted names, ascending masks) and prunes on what it
has met; no answer may depend on that order, nor on variables that nothing
reads, and every answer must hold up when checked against `is_sufficient`
directly."""

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
    direct_cause_sets,
    hph_causes,
    is_sufficient,
    minimal_sufficient_sets,
    parse_case,
)
from actualcause.randmodel import random_effect, scenario_stream

from conftest import corpus_dir, grouped_conjunction, lattice, make_scenario, or_of_ands, tree

OPTION_SETS = (EngineOptions(), EngineOptions(abnormality_variant="3prime"))


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
def test_renaming_and_reordering_random_models_of_11_and_12_variables(mode):
    rng = random.Random(3)
    stream = scenario_stream(seed=37, count=1800, max_vars=12, mode=mode)
    large = [scenario for _, scenario in stream if len(scenario.model.variables) > 10]
    for scenario in large[:300]:
        model = scenario.model
        effect = Event(model.variables[-1], scenario.actual_value(model.variables[-1]))
        assert_maps_over_a_renaming(scenario, effect, rng)
    assert len(large) >= 300


def corpus_and_random_queries(seed: int) -> list[tuple[Scenario, Event]]:
    """The 66 corpus cases, then 300 random reliable-mode models of up to 12
    variables, each asked about its deepest variable."""
    queries = []
    for path in sorted(corpus_dir().glob("*.case")):
        case = parse_case(path.read_text(encoding="utf-8"))
        queries.append((case.scenario, case.effect))
    for _, scenario in scenario_stream(seed=seed, count=300, max_vars=12):
        queries.append((scenario, random_effect(scenario)))
    return queries


def actual_direct_causes(scenario: Scenario) -> dict[str, list[frozenset[Event]]]:
    """Each derived variable's direct-cause sets at its actual value."""
    model = scenario.model
    return {
        var: direct_cause_sets(scenario, Event(var, scenario.actual_value(var)))
        for var in model.variables
        if not model.is_initial(var)
    }


def test_direct_causes_map_over_a_renaming():
    rng = random.Random(2)
    targets = 0
    for scenario, _ in corpus_and_random_queries(seed=43):
        other, names = renamed(scenario, rng)
        theirs = actual_direct_causes(other)
        for var, sets in actual_direct_causes(scenario).items():
            mapped = {frozenset(Event(names[ev.var], ev.value) for ev in group) for group in sets}
            assert set(theirs[names[var]]) == mapped, var
            targets += 1
    assert targets == 1563


def with_irrelevant_variables(scenario: Scenario, rng: random.Random) -> Scenario:
    """The scenario plus an initial variable at 0 that nothing reads, and a
    derived copy of a random variable, over its domain, that nothing reads."""
    model = scenario.model
    idle, copy = "zz_idle", "zz_copy"
    assert not {idle, copy} & set(model.variables)
    copied = rng.choice(model.variables)
    return Scenario(
        Model(
            [*model.variables, idle, copy],
            {**model.equations, idle: Const(0), copy: Var(copied)},
            {**model.domains, copy: model.domains[copied]},
        ),
        mode=scenario.mode,
        defaults=scenario.defaults,
        intentions=scenario.intentions,
    )


def test_irrelevant_variables_change_no_answer():
    rng = random.Random(3)
    scenarios = 0
    for scenario, effect in corpus_and_random_queries(seed=44):
        other = with_irrelevant_variables(scenario, rng)
        for options in OPTION_SETS:
            assert causes_of(other, effect, options) == causes_of(scenario, effect, options)
        assert minimal_sufficient_sets(other, effect) == minimal_sufficient_sets(scenario, effect)
        assert hph_causes(other, effect).events == hph_causes(scenario, effect).events
        ours = actual_direct_causes(scenario)
        assert {var: actual_direct_causes(other)[var] for var in ours} == ours
        scenarios += 1
    assert scenarios == 366


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


@pytest.mark.parametrize("mode", ["reliable", "general"])
@pytest.mark.parametrize(
    "formulas",
    [tree(3), grouped_conjunction(5, 5), lattice(4, 4), or_of_ands(4, 3)],
    ids=["tree(2^3)", "grouped_conjunction(5, 5)", "lattice 4x4", "OR of 4 ANDs of 3"],
)
def test_the_families_map_over_a_renaming_and_ignore_irrelevant_variables(formulas, mode):
    # every variable's minimal sufficient and direct-cause sets: a renamed,
    # reordered copy maps them over, and an idle and a copied variable that
    # nothing reads change none of them
    rng = random.Random(5)
    scenario = make_scenario(formulas, mode=mode)
    other, names = renamed(scenario, rng)
    extended = with_irrelevant_variables(scenario, rng)
    for var in scenario.model.variables:
        target = Event(var, scenario.actual_value(var))
        theirs = Event(names[var], target.value)
        questions = [minimal_sufficient_sets]
        if not scenario.model.is_initial(var):
            questions.append(direct_cause_sets)
        for question in questions:
            sets = question(scenario, target)
            mapped = {frozenset(Event(names[ev.var], ev.value) for ev in group) for group in sets}
            assert set(question(other, theirs)) == mapped, (question.__name__, var)
            assert question(extended, target) == sets, (question.__name__, var)
