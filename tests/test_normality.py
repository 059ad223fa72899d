"""Conformity ranks, assignment comparison, intrinsic reduction, and the
per-plan abnormality screen."""

from __future__ import annotations

import itertools
import re
import sys

import pytest

from actualcause import (
    DomainError,
    EngineOptions,
    Event,
    OrderResult,
    SearchTooLargeError,
    UnknownVariableError,
    causes_of,
    compare,
    hph_causes,
    intentional_causes,
    minimal_sufficient_sets,
    parse_case,
    plan_abnormality,
    rank,
)
from actualcause import normality
from actualcause.model import enumerate_settings, reduced_model, solve
from actualcause.normality import AbnormalityWitness, PlanAbnormality, Reduction
from actualcause.randmodel import random_effect, scenario_stream

from conftest import WIDE_FORMULAS, corpus_dir, counting_calls, make_scenario


class TestRank:
    def test_initial_variable(self):
        scenario = make_scenario("a=1; d=0; e=a & ~d")
        top = rank(scenario, "a", 0)  # at default
        dev = rank(scenario, "a", 1)
        assert top.level > dev.level
        assert top.value is None
        assert dev.value == 1 and dev.context == ()

    def test_derived_variable_needs_parent_values(self):
        scenario = make_scenario("a=1; d=0; e=a & ~d")
        with pytest.raises(UnknownVariableError):
            rank(scenario, "e", 1)

    def test_derived_conformity(self):
        scenario = make_scenario("a=1; d=0; e=a & ~d")
        conforming = rank(scenario, "e", 1, {"a": 1, "d": 0})
        deviant = rank(scenario, "e", 0, {"a": 1, "d": 0})
        assert conforming.value is None  # top of the order
        assert conforming.level > deviant.level
        # A deviant value is indexed by the parent context it deviates in.
        assert deviant.value == 0 and deviant.context == (1, 0)

    def test_derived_variable_missing_a_parent_value(self):
        scenario = make_scenario("a=1; d=0; e=a & ~d")
        with pytest.raises(UnknownVariableError, match=r"missing parent value\(s\) \['d'\]"):
            rank(scenario, "e", 1, {"a": 1})

    def test_parent_value_outside_domain(self):
        scenario = make_scenario("a=1; d=0; e=a & ~d")
        with pytest.raises(DomainError):
            rank(scenario, "e", 1, {"a": 2, "d": 0})

    def test_general_mode_ranks_by_default(self):
        scenario = make_scenario("a=1; d=0; e=a & ~d", mode="general")
        assert rank(scenario, "e", 0).value is None  # default is normal
        assert rank(scenario, "e", 1).value == 1  # anything else deviates

    def test_unknown_variable(self):
        scenario = make_scenario("a=1; e=a")
        with pytest.raises(UnknownVariableError):
            rank(scenario, "z", 0)


class TestCompare:
    def test_equal(self):
        scenario = make_scenario("a=1; d=0; e=a & ~d")
        actual = scenario.actual()
        assert compare(scenario, actual, actual) is OrderResult.EQUAL

    def test_strictly_more_normal(self):
        scenario = make_scenario("a=1; d=0; e=a & ~d")
        all_default = {"a": 0, "d": 0, "e": 0}
        assert (
            compare(scenario, all_default, scenario.actual())
            is OrderResult.GREATER_OR_EQUAL
        )
        assert (
            compare(scenario, scenario.actual(), all_default)
            is OrderResult.LESS_OR_EQUAL
        )

    def test_incomparable_deviants(self):
        # Two different deviant values of the same initial variable do not
        # compare: deviations are only identical to themselves.
        scenario = make_scenario("a=1; e=a >= 0", domains={"a": (0, 1, 2)})
        first = {"a": 1, "e": 1}
        second = {"a": 2, "e": 1}
        assert compare(scenario, first, second) is OrderResult.INCOMPARABLE

    def test_missing_variable(self):
        scenario = make_scenario("a=1; e=a")
        with pytest.raises(UnknownVariableError):
            compare(scenario, {"a": 1}, {"a": 1})

    def test_a_bad_value_after_an_incomparable_variable_raises(self):
        # a deviates differently on each side; b, read after it, is off its domain
        scenario = make_scenario("a=1; b=0; e=a >= 0", domains={"a": (0, 1, 2)})
        with pytest.raises(DomainError):
            compare(scenario, {"a": 1, "b": 0, "e": 1}, {"a": 2, "b": 5, "e": 1})

    @pytest.mark.parametrize("mode", ["reliable", "general"])
    @pytest.mark.parametrize(
        "formulas, domains, defaults",
        [
            ("a=1; d=0; e=a & ~d", {}, {}),
            ("a=1; b=1; c=a & b; e=c | ~a", {}, {"b": 1}),
            ("a=2; b=a; e=b >= 1", {"a": (0, 1, 2), "b": (0, 1, 2)}, {"a": 1}),
        ],
    )
    def test_every_pair_of_worlds_matches_the_definition(
        self, formulas, domains, defaults, mode
    ):
        scenario = make_scenario(formulas, domains, defaults, mode=mode)
        model = scenario.model
        worlds = list(enumerate_settings(model, model.variables))
        flipped = {
            OrderResult.GREATER_OR_EQUAL: OrderResult.LESS_OR_EQUAL,
            OrderResult.LESS_OR_EQUAL: OrderResult.GREATER_OR_EQUAL,
        }
        seen = set()
        for first, second in itertools.product(worlds, repeat=2):
            found = compare(scenario, first, second)
            assert found is defined_order(scenario, first, second), (first, second)
            assert compare(scenario, second, first) is flipped.get(found, found)
            seen.add(found)
        assert seen == set(OrderResult)


def defined_order(scenario, first, second):
    """The order on two total assignments, read from its definition: a
    variable is normal at its default (an initial variable, or any variable
    in general mode) or where its equation gives its value, and otherwise
    deviates with its value in its parents' context.  Two deviations compare
    only when they are the same one."""
    model = scenario.model

    def deviation(var, world):
        if scenario.mode == "general" or not model.parents(var):
            if world[var] == scenario.defaults[var]:
                return None
            return world[var], ()
        if model.equations[var].evaluate(world) == world[var]:
            return None
        return world[var], tuple(world[p] for p in sorted(model.parents(var)))

    more = less = False
    for var in model.variables:
        mine, theirs = deviation(var, first), deviation(var, second)
        if mine == theirs:
            continue
        if mine is not None and theirs is not None:
            return OrderResult.INCOMPARABLE
        more, less = more or mine is None, less or theirs is None
    if more and less:
        return OrderResult.INCOMPARABLE
    if more:
        return OrderResult.GREATER_OR_EQUAL
    return OrderResult.LESS_OR_EQUAL if less else OrderResult.EQUAL


class TestPlanAbnormality:
    """Hand-worked screen on e = a & ~d with a=1 (off default), d=0 (at
    default): the plan {a, d} passes via the contrast a'=0, d'=0."""

    def test_set_level_passes_and_certifies_both_members(self):
        scenario = make_scenario("a=1; d=0; e=a & ~d")
        result = plan_abnormality(scenario, ("a", "d"), Event("e", 1))
        assert result.passed
        # a is certified by its flip in the witness; d, sitting at its
        # default, rides along on the default clause.
        assert result.certified == frozenset({"a", "d"})
        assert result.witness.contrast == frozenset(
            {Event("a", 0), Event("d", 0)}
        )
        assert result.witness.outcome_map() == {"a": 0, "d": 0, "e": 0}

    def test_single_event_focus_excludes_the_omission(self):
        # Breaking the effect through d alone needs d'=1, which is neither
        # d's actual nor its default value, so the witness ranks below the
        # actual state and d has no single-flip witness.
        scenario = make_scenario("a=1; d=0; e=a & ~d")
        result = plan_abnormality(scenario, ("a", "d"), Event("e", 1))
        assert "d" not in dict(result.single_flips)

    def test_single_event_focus_keeps_the_flip(self):
        scenario = make_scenario("a=1; d=0; e=a & ~d")
        result = plan_abnormality(scenario, ("a", "d"), Event("e", 1))
        assert [var for var, _ in result.single_flips] == ["a"]
        witness = dict(result.single_flips)["a"]
        assert witness.contrast == frozenset({Event("a", 0), Event("d", 0)})
        assert witness.outcome_map() == {"a": 0, "d": 0, "e": 0}

    def test_failed_screen_has_no_witness(self):
        # A lone at-default member cannot break the effect abnormally.
        scenario = make_scenario("a=0; e=~a")
        result = plan_abnormality(scenario, ("a",), Event("e", 1))
        assert not result.passed
        assert result.witness is None
        assert result.certified == frozenset()

    def test_roaming_background_is_searched(self):
        # The plan {a} is silent about initial c; the screen may roam c to
        # find a background in which the contrast breaks the effect.
        scenario = make_scenario("a=1; c=0; e=a & ~c")
        result = plan_abnormality(scenario, ("a",), Event("e", 1))
        assert result.passed
        assert result.witness.background == frozenset({Event("c", 0)})

    @pytest.mark.parametrize(
        "effect, error",
        [(Event("zz", 1), UnknownVariableError), (Event("e", 7), DomainError)],
    )
    def test_effect_is_validated(self, effect, error):
        scenario = make_scenario("a=1; e=a")
        with pytest.raises(error):
            plan_abnormality(scenario, ("a",), effect)

    def test_unknown_plan_variable(self):
        scenario = make_scenario("a=1; e=a")
        with pytest.raises(UnknownVariableError, match=r"unknown plan variable\(s\) \['z'\]"):
            plan_abnormality(scenario, ("a", "z"), Event("e", 1))


class TestAbnormalityExits:
    """The search stops a contrast at its first witness and skips a contrast
    whose witnesses could change nothing; neither exit may lose a result."""

    def test_a_later_contrast_still_certifies(self):
        # e holds when a and b agree.  Contrasts go (0,0), (0,1), (1,0): the
        # first keeps e, the second is the first witness and flips a alone,
        # and only the third flips b.
        scenario = make_scenario("a=1; b=1; e=(a & b) | (~a & ~b)")
        result = plan_abnormality(scenario, ("a", "b"), Event("e", 1))
        assert result.witness.contrast == frozenset({Event("a", 0), Event("b", 1)})
        assert result.certified == frozenset({"a", "b"})
        assert [var for var, _ in result.single_flips] == ["a", "b"]

    def test_a_lone_flip_after_a_wider_witness_is_recorded(self):
        # The first witness (0,0) flips a and b together; the lone flips of
        # (0,1) and (1,0) change no certified member, but each is its
        # variable's first single flip.
        scenario = make_scenario("a=1; b=1; e=a & b")
        result = plan_abnormality(scenario, ("a", "b"), Event("e", 1))
        assert result.witness.contrast == frozenset({Event("a", 0), Event("b", 0)})
        assert result.certified == frozenset({"a", "b"})
        flips = dict(result.single_flips)
        assert list(flips) == ["a", "b"]
        assert flips["a"].contrast == frozenset({Event("a", 0), Event("b", 1)})
        assert flips["b"].contrast == frozenset({Event("a", 1), Event("b", 0)})


# The ranked pin rule that `Reduction.pinnable(var, tops)` states in closed
# form, kept as its reference: a pin ranks Top at its top values and at a
# middle level, between Deviant (0) and Top (2), elsewhere, and may take a
# value whose rank compares equal to or above the actual rank.
MID = normality.Rank(1)


def screen_pin_rank(value, actual, default):
    """The abnormality screen's pin rank: Top at the actual or default value."""
    return normality.TOP if value in (actual, default) else MID


def comparator_pin_rank(value, actual, default):
    """The comparator's pin rank: Top at the default only."""
    return normality.TOP if value == default else MID


def ranked_pinnable(reduction, pin_rank):
    """Each variable's values, in domain order, at which its pin ranks no
    lower than actuality, the actual rank read from the built reduced model;
    a removed variable is never ranked and keeps them all."""
    scenario = reduction.scenario
    reduced = reduced_model(scenario.model, reduction.removed)
    allowed = {}
    for var, domain in scenario.model.domains.items():
        if var in reduction.removed:
            allowed[var] = list(domain.values)
            continue
        top, *deviation = reference_rank(reduced, scenario.defaults, var, reduction.actual)
        actual_rank = normality.TOP if top else normality.Rank(0, *deviation)
        actual = reduction.actual[var]
        default = scenario.defaults[var]
        allowed[var] = [
            value
            for value in domain.values
            if (pin := pin_rank(value, actual, default)) == actual_rank
            or pin.level > actual_rank.level
        ]
    return allowed


def pins_rank_no_lower(allowed, world, pinned):
    """Whether every pin ranks no lower than it does in actuality, `allowed`
    being `ranked_pinnable`'s values: the per-world pin check that
    `no_less_normal` leaves to `Reduction.pinnable`."""
    return all(world[v] in allowed[v] for v in pinned)


def single_event_witnesses(scenario, pins, effect):
    """Each pin's first witness among the contrasts that move it alone,
    searched on its own for every pin, in the set-level search's order."""
    model = scenario.model
    actual = scenario.actual()
    ordered = [v for v in model.variables if v in pins]
    reduction = Reduction(scenario, frozenset(pins))
    allowed = ranked_pinnable(reduction, screen_pin_rank)
    roaming = scenario.roaming_vars(frozenset(pins), effect.var)

    def first_witness(focus):
        for contrast in enumerate_settings(model, ordered):
            if [v for v in ordered if contrast[v] != actual[v]] != [focus]:
                continue
            for background in enumerate_settings(model, roaming):
                overrides = {**contrast, **background}
                world = solve(scenario, overrides)
                if (
                    world[effect.var] != effect.value
                    and pins_rank_no_lower(allowed, world, overrides)
                    and reduction.no_less_normal(world, overrides)
                ):
                    return normality.AbnormalityWitness(
                        contrast=frozenset(Event(v, contrast[v]) for v in ordered),
                        background=frozenset(Event(v, background[v]) for v in roaming),
                        outcome=tuple(sorted(world.items())),
                    )
        return None

    found = {focus: first_witness(focus) for focus in ordered}
    return {focus: witness for focus, witness in found.items() if witness}


def test_single_flips_match_a_single_event_search():
    compared = 0
    for mode in ("reliable", "general"):
        for _, scenario in scenario_stream(47, 60, max_vars=7, mode=mode):
            for effect, pins in pin_sets(scenario):
                result = plan_abnormality(scenario, pins, effect)
                expected = single_event_witnesses(scenario, pins, effect)
                assert dict(result.single_flips) == expected
                assert [var for var, _ in result.single_flips] == [
                    v for v in scenario.model.variables if v in expected
                ]
                assert set(expected) <= result.certified
                compared += len(expected)
    assert compared > 200


def reference_rank(model, defaults, var, world):
    """The free rank of `var` in `world`, read from the built reduced model:
    (True, None, ()) for Top, else (False, value, parent values)."""
    value = world[var]
    if model.is_initial(var):
        top = value == defaults[var]
        context = ()
    else:
        top = model.lookup(var, world) == value
        context = tuple(world[p] for p in model.parents(var))
    return (True, None, ()) if top else (False, value, context)


def pin_sets(scenario):
    """(effect, pins) for every set of one or two ancestors of a variable,
    the effect being that variable at its actual value."""
    for var in scenario.model.variables:
        ancestors = sorted(scenario.model.ancestors(var))
        for size in (1, 2):
            for pins in itertools.combinations(ancestors, size):
                yield Event(var, scenario.actual_value(var)), pins


class TestReduction:
    """The read-only reduction's value rule decides, for each kept variable,
    what ranking it in the built reduced model against the actual world
    would, on the actual world and on every world the abnormality screen
    would solve without its pin pruning.  The pin sets need not be
    sufficient, as the comparator's contrast sets need not be."""

    def test_ranks_match_the_built_reduction(self):
        checked = 0
        for mode in ("reliable", "general"):
            for _, scenario in scenario_stream(43, 25, max_vars=7, mode=mode):
                model = scenario.model
                actual = scenario.actual()
                for effect, pins in pin_sets(scenario):
                    removed = {
                        v: actual[v]
                        for v in frozenset().union(*map(model.ancestors, pins)) - set(pins)
                    }
                    reduced = reduced_model(model, removed)
                    reduction = Reduction(scenario, frozenset(pins))
                    assert tuple(reduction.kept) == reduced.variables
                    assert reduction.initial == reduced.initial_variables()
                    # every world the unpruned abnormality search solves
                    roaming = scenario.roaming_vars(frozenset(pins), effect.var)
                    worlds = [
                        solve(scenario, {**contrast, **background})
                        for contrast in enumerate_settings(model, pins)
                        if any(contrast[v] != actual[v] for v in pins)
                        for background in enumerate_settings(model, roaming)
                    ]
                    for var in reduction.kept:
                        actual_rank = reference_rank(reduced, scenario.defaults, var, actual)
                        # every other kept variable pinned, so only `var` is ranked
                        others = set(reduction.kept) - {var}
                        for world in [actual, *worlds]:
                            found = reference_rank(reduced, scenario.defaults, var, world)
                            expected = found[0] or found == actual_rank
                            assert reduction.no_less_normal(world, others) == expected
                            checked += 1
        assert checked > 10_000

    def test_a_different_deviation_is_incomparable(self):
        # a deviates in actuality at 2; a world at its default is more
        # normal, one at the same deviation equal, one at another deviation
        # incomparable.
        scenario = make_scenario("a=2; e=a", domains={"a": (0, 1, 2), "e": (0, 1, 2)})
        reduction = Reduction(scenario, frozenset())
        verdicts = {
            value: reduction.no_less_normal(solve(scenario, {"a": value}), ())
            for value in (0, 1, 2)
        }
        assert verdicts == {0: True, 1: False, 2: True}


def unpruned_plan_abnormality(scenario, pins, effect):
    """The abnormality search without pin pruning: every contrast differing
    from the actual one is solved under every background, whatever its pins
    rank."""
    pins = frozenset(pins)
    model = scenario.model
    model.check_value(effect.var, effect.value)
    actual = scenario.actual()
    ordered_pins = [v for v in model.variables if v in pins]
    reduction = Reduction(scenario, pins)
    allowed = ranked_pinnable(reduction, screen_pin_rank)
    roaming = scenario.roaming_vars(pins, effect.var)

    first_witness = None
    single = {}
    flipped = set()

    for contrast in enumerate_settings(model, ordered_pins):
        delta = [v for v in ordered_pins if contrast[v] != actual[v]]
        if not delta:
            continue
        lone = delta[0] if len(delta) == 1 else None
        for background in enumerate_settings(model, roaming):
            overrides = {**contrast, **background}
            world = solve(scenario, overrides)
            if world[effect.var] == effect.value:
                continue
            if not (
                pins_rank_no_lower(allowed, world, overrides)
                and reduction.no_less_normal(world, overrides)
            ):
                continue
            flipped.update(delta)
            if first_witness is not None and (lone is None or lone in single):
                continue
            witness = AbnormalityWitness(
                contrast=frozenset(Event(v, contrast[v]) for v in ordered_pins),
                background=frozenset(Event(v, background[v]) for v in roaming),
                outcome=tuple(sorted(world.items())),
            )
            if first_witness is None:
                first_witness = witness
            if lone is not None:
                single[lone] = witness

    passed = first_witness is not None
    certified = set(flipped)
    if passed:
        for var in ordered_pins:
            if actual[var] == scenario.defaults[var]:
                certified.add(var)
    return PlanAbnormality(
        passed=passed,
        witness=first_witness,
        certified=frozenset(certified),
        single_flips=tuple((v, single[v]) for v in ordered_pins if v in single),
    )


def plan_queries(scenario):
    """(pins, effect) for every minimal sufficient set of every variable at
    its actual value, then for every set of one or two of its ancestors."""
    for var in scenario.model.variables:
        effect = Event(var, scenario.actual_value(var))
        for events in minimal_sufficient_sets(scenario, effect):
            yield frozenset(ev.var for ev in events), effect
    for effect, pins in pin_sets(scenario):
        yield frozenset(pins), effect


def pruned_somewhere(scenario, pins, effect):
    """Whether some pin or roaming variable loses a value to the pruning."""
    allowed = ranked_pinnable(Reduction(scenario, pins), screen_pin_rank)
    pool = pins | scenario.roaming_vars(pins, effect.var)
    return any(len(allowed[v]) < len(scenario.model.domains[v]) for v in pool)


class TestPinPruning:
    """The search skips pin values that rank below actuality, unsolved."""

    def test_results_match_the_unpruned_search(self, monkeypatch):
        # Whole results are compared with ==, witnesses and single flips
        # included; a repr would depend on the hash seed through frozensets.
        scenarios = [
            parse_case(path.read_text(encoding="utf-8")).scenario
            for path in sorted(corpus_dir().glob("*.case"))
        ]
        for mode in ("reliable", "general"):
            scenarios += [s for _, s in scenario_stream(11, 150, max_vars=8, mode=mode)]
        searched = counting_calls(monkeypatch, normality, "solve")
        # the reference calls this module's own `solve`
        unpruned = counting_calls(monkeypatch, sys.modules[__name__], "solve")
        queries = pruned = fewer = 0
        for scenario in scenarios:
            seen = set()  # a repeated query is answered from the memo, unsolved
            for pins, effect in plan_queries(scenario):
                searched.clear()
                unpruned.clear()
                expected = unpruned_plan_abnormality(scenario, pins, effect)
                assert plan_abnormality(scenario, pins, effect) == expected
                queries += 1
                pruned += pruned_somewhere(scenario, pins, effect)
                if (pins, effect) not in seen:
                    fewer += len(searched) < len(unpruned)
                    seen.add((pins, effect))
        assert queries == 6020
        # queries where some pin or roaming variable loses a value
        assert pruned > 4000
        # queries that solve fewer worlds than the unpruned search; pin
        # pruning alone gives 2 975, and stopping each contrast at its first
        # witness and skipping contrasts that cannot change the result 3 649
        assert fewer > 3600

    def test_the_actual_value_always_stays(self):
        for mode in ("reliable", "general"):
            for _, scenario in scenario_stream(12, 40, max_vars=7, mode=mode):
                actual = scenario.actual()
                for effect, pins in pin_sets(scenario):
                    reduction = Reduction(scenario, frozenset(pins))
                    for var in scenario.model.variables:
                        tops = (actual[var], scenario.defaults[var])
                        values = reduction.pinnable(var, tops)
                        assert actual[var] in values
                        assert values == [
                            v for v in scenario.model.domains[var].values if v in values
                        ]

    def test_pinnable_matches_the_ranked_rule(self):
        # Under both searches' pin ranks, for every kept and removed variable
        # of every reduction, the closed form lists what ranking each pin
        # against the actual rank would.
        checked = {"kept": 0, "removed": 0, "pruned": 0}
        for mode in ("reliable", "general"):
            for _, scenario in scenario_stream(13, 40, max_vars=7, mode=mode):
                actual = scenario.actual()
                defaults = scenario.defaults
                for _, pins in pin_sets(scenario):
                    reduction = Reduction(scenario, frozenset(pins))
                    screen_rule = ranked_pinnable(reduction, screen_pin_rank)
                    comparator_rule = ranked_pinnable(reduction, comparator_pin_rank)
                    for var in scenario.model.variables:
                        screen = reduction.pinnable(var, (actual[var], defaults[var]))
                        assert screen == screen_rule[var]
                        comparator = reduction.pinnable(var, (defaults[var],))
                        assert comparator == comparator_rule[var]
                        checked["removed" if var in reduction.removed else "kept"] += 1
                        checked["pruned"] += len(comparator) < len(
                            scenario.model.domains[var]
                        )
        assert checked["kept"] > 3000 and checked["removed"] > 300
        # variables where the comparator's rule leaves out some value
        assert checked["pruned"] > 2000


class TestAbnormalityWork:
    """Work-count regression gates and the enumeration cap."""

    def test_solve_count_or_of_eleven(self, monkeypatch):
        # Every contrast raises some xi to 1, off its actual and default
        # value: Mid below the actual Top.  The unpruned search solves all
        # 2 047 of them.
        scenario = make_scenario(
            "; ".join([f"x{i}=0" for i in range(11)])
            + "; e=~(" + " | ".join(f"x{i}" for i in range(11)) + ")"
        )
        solved = counting_calls(monkeypatch, normality, "solve")
        assert causes_of(scenario, Event("e", 1)) == frozenset()
        assert solved == []

    def test_solve_count_over_the_corpus(self, monkeypatch):
        # Fresh scenarios, so no memo entry is shared with other tests.
        # Each contrast stops at its first witness, and a contrast whose
        # witnesses could change nothing is skipped unsolved; solving every
        # background of every contrast left, the count was 2 064.  Direct
        # causes no longer run this search on a model cut down to each
        # target's parents; with those screens the count was 2 448, where the
        # unpruned search solved 4 142 worlds.
        solved = counting_calls(monkeypatch, normality, "solve")
        cases = 0
        for path in sorted(corpus_dir().glob("*.case")):
            case = parse_case(path.read_text(encoding="utf-8"))
            causes_of(case.scenario, case.effect)
            cases += 1
        assert cases == 66
        assert len(solved) == 587

    def test_rank_count_over_the_corpus(self, monkeypatch):
        # The worlds `no_less_normal` ranks: 418 from the abnormality screen
        # and 131 from the comparator.  Only worlds that break the effect are
        # ranked.  A contrast set under which the effect cannot change ranks
        # nothing, and direct causes rank nothing either.  Counted as
        # variable ranks, the actual world's included, this gate read 3 262,
        # and 6 081 when every background of every contrast was solved.
        ranked = counting_calls(monkeypatch, Reduction, "no_less_normal")
        cases = 0
        for path in sorted(corpus_dir().glob("*.case")):
            case = parse_case(path.read_text(encoding="utf-8"))
            intentional_causes(case.scenario, case.effect)
            hph_causes(case.scenario, case.effect)
            cases += 1
        assert cases == 66
        assert len(ranked) == 549

    def test_solve_count_over_the_random_nets_pool(self, monkeypatch):
        # The benchmark's random-nets pool, each model with its deepest
        # variable as the effect, under both abnormality variants (one memo
        # entry per plan serves both).  Solving every background of every
        # contrast left, the count was 532.
        solved = counting_calls(monkeypatch, normality, "solve")
        prime = EngineOptions(abnormality_variant="3prime")
        models = 0
        for _, scenario in scenario_stream(1, 200, max_vars=12):
            effect = random_effect(scenario)
            causes_of(scenario, effect)
            causes_of(scenario, effect, prime)
            models += 1
        assert models == 200
        assert len(solved) == 231

    def test_pins_at_their_defaults_do_not_count(self, monkeypatch):
        # 21 binary pins at their actual values, which are their defaults:
        # the actual contrast is the only one left, so there is nothing to
        # solve, where the unpruned search refuses 2**21 contrasts.
        scenario = make_scenario(WIDE_FORMULAS)
        pins = [f"x{i}" for i in range(21)]
        solved = counting_calls(monkeypatch, normality, "solve")
        result = plan_abnormality(scenario, pins, Event("e", 1))
        assert result == PlanAbnormality(False, None, frozenset(), ())
        assert solved == []

    def test_off_default_pins_still_count(self, monkeypatch):
        # With every pin off its default, each value ranks no lower than
        # the deviant actual one: 2**21 - 1 contrasts times one background.
        defaults = {f"x{i}": 1 for i in range(21)}
        scenario = make_scenario(WIDE_FORMULAS, defaults=defaults)
        solved = counting_calls(monkeypatch, normality, "solve")
        pins = [f"x{i}" for i in range(21)]
        message = f"abnormality search over {pins} has 2097151 candidate worlds, cap 1048576"
        with pytest.raises(SearchTooLargeError, match=f"^{re.escape(message)}$"):
            plan_abnormality(scenario, list(defaults), Event("e", 1))
        assert solved == []
