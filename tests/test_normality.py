"""Conformity ranks, assignment comparison, intrinsic reduction, and the
per-plan abnormality screen."""

from __future__ import annotations

import itertools
import re

import pytest

from actualcause import (
    ActualityError,
    DomainError,
    Event,
    OrderResult,
    PlanNotSufficientError,
    SearchTooLargeError,
    UnknownVariableError,
    causes_of,
    compare,
    hph_causes,
    intentional_causes,
    intrinsic_scenario,
    minimal_sufficient_sets,
    parse_case,
    plan_abnormality,
    rank,
)
from actualcause import comparators, normality
from actualcause.model import enumerate_settings, reduced_model, solve
from actualcause.normality import AbnormalityWitness, PlanAbnormality, Reduction
from actualcause.randmodel import scenario_stream

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


class TestIntrinsicScenario:
    def test_strict_ancestors_fold_away(self):
        scenario = make_scenario("a=1; b=a; e=b")
        reduced = intrinsic_scenario(scenario, (Event("b", 1),), Event("e", 1))
        assert reduced.model.is_initial("b")
        assert reduced.actual_value("b") == 1
        assert reduced.actual_value("e") == 1

    def test_non_actual_member_rejected(self):
        scenario = make_scenario("a=1; b=a; e=b")
        with pytest.raises(ActualityError):
            intrinsic_scenario(scenario, (Event("b", 0),), Event("e", 1))

    def test_insufficient_set_rejected(self):
        scenario = make_scenario("a=1; b=1; e=a & b")
        with pytest.raises(PlanNotSufficientError):
            intrinsic_scenario(scenario, (Event("a", 1),), Event("e", 1))


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


def pins_rank_no_lower(reduction, world, pinned):
    """Whether every pinned kept variable ranks, by `_pin_rank`, no lower
    than it does in actuality: the per-world pin check that `no_less_normal`
    leaves to `Reduction.pinnable`.  A pin ranks Top or Mid, never Deviant."""
    defaults = reduction.scenario.defaults
    return all(
        normality._pin_rank(world[v], reduction.actual[v], defaults[v]).level
        >= reduction.actual_ranks[v].level
        for v in pinned
        if v in reduction.actual_ranks
    )


def single_event_witnesses(scenario, pins, effect):
    """Each pin's first witness among the contrasts that move it alone,
    searched on its own for every pin, in the set-level search's order."""
    model = scenario.model
    actual = scenario.actual()
    ordered = [v for v in model.variables if v in pins]
    reduction = Reduction(scenario, frozenset(pins))
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
                    and pins_rank_no_lower(reduction, world, overrides)
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
        context = tuple(world[p] for p in model.parent_tuple(var))
    return (True, None, ()) if top else (False, value, context)


def rank_key(found):
    return (True, None, ()) if found.is_top() else (False, found.value, found.context)


def pin_sets(scenario):
    """(effect, pins) for every set of one or two ancestors of a variable,
    the effect being that variable at its actual value."""
    for var in scenario.model.variables:
        ancestors = sorted(scenario.model.ancestors(var))
        for size in (1, 2):
            for pins in itertools.combinations(ancestors, size):
                yield Event(var, scenario.actual_value(var)), pins


class TestReduction:
    """The read-only reduction ranks exactly as the built reduced model
    does, on the actual world and on every world the abnormality screen
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
                        for v in model.ancestors(pins) - set(pins)
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
                    for world in [actual, *worlds]:
                        for var in reduction.kept:
                            found = rank_key(reduction.free_rank(var, world))
                            assert found == reference_rank(
                                reduced, scenario.defaults, var, world
                            )
                            checked += 1
        assert checked > 10_000


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
                pins_rank_no_lower(reduction, world, overrides)
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
    reduction = Reduction(scenario, pins)
    pool = pins | scenario.roaming_vars(pins, effect.var)
    return any(
        len(reduction.pinnable(v, normality._pin_rank)) < len(scenario.model.domains[v])
        for v in pool
    )


class TestPinPruning:
    """The search skips pin values that rank below actuality, unsolved."""

    def test_results_match_the_unpruned_search(self):
        # Whole results are compared with ==, witnesses and single flips
        # included; a repr would depend on the hash seed through frozensets.
        scenarios = [
            parse_case(path.read_text(encoding="utf-8")).scenario
            for path in sorted(corpus_dir().glob("*.case"))
        ]
        for mode in ("reliable", "general"):
            scenarios += [s for _, s in scenario_stream(11, 150, max_vars=8, mode=mode)]
        queries = pruned = 0
        for scenario in scenarios:
            for pins, effect in plan_queries(scenario):
                expected = unpruned_plan_abnormality(scenario, pins, effect)
                assert plan_abnormality(scenario, pins, effect) == expected
                queries += 1
                pruned += pruned_somewhere(scenario, pins, effect)
        assert queries == 6020
        # queries where some pin or roaming variable loses a value
        assert pruned > 4000

    def test_the_actual_value_always_stays(self):
        for mode in ("reliable", "general"):
            for _, scenario in scenario_stream(12, 40, max_vars=7, mode=mode):
                actual = scenario.actual()
                for effect, pins in pin_sets(scenario):
                    reduction = Reduction(scenario, frozenset(pins))
                    for var in scenario.model.variables:
                        values = reduction.pinnable(var, normality._pin_rank)
                        assert actual[var] in values
                        assert values == [
                            v for v in scenario.model.domains[var].values if v in values
                        ]


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
        # Direct causes no longer run this search on a model cut down to each
        # target's parents; with those screens the count was 2 448, where the
        # unpruned search solved 4 142 worlds.
        solved = counting_calls(monkeypatch, normality, "solve")
        cases = 0
        for path in sorted(corpus_dir().glob("*.case")):
            case = parse_case(path.read_text(encoding="utf-8"))
            causes_of(case.scenario, case.effect)
            cases += 1
        assert cases == 66
        assert len(solved) == 2064

    def test_rank_count_over_the_corpus(self, monkeypatch):
        # Pins are ranked only by `Reduction.pinnable`, up front, never per
        # solved world; free ranks are the actual and solved worlds' own.  A
        # contrast set under which the effect cannot change ranks nothing.
        # Direct causes rank nothing either.  While they still screened on a
        # model cut down to each target's parents, the count was
        # {"pin": 2540, "free": 6733}; a per-world pin check then made 5 813
        # pin ranks, and ranking those contrast sets too made 3 033 and 7 268.
        counts = {"pin": 0, "free": 0}

        def counting(function, key):
            def counted(*args):
                counts[key] += 1
                return function(*args)

            return counted

        monkeypatch.setattr(normality, "_pin_rank", counting(normality._pin_rank, "pin"))
        monkeypatch.setattr(
            comparators, "_pinned_rank", counting(comparators._pinned_rank, "pin")
        )
        monkeypatch.setattr(Reduction, "_rank", counting(Reduction._rank, "free"))
        cases = 0
        for path in sorted(corpus_dir().glob("*.case")):
            case = parse_case(path.read_text(encoding="utf-8"))
            intentional_causes(case.scenario, case.effect)
            hph_causes(case.scenario, case.effect)
            cases += 1
        assert cases == 66
        assert counts == {"pin": 1991, "free": 6081}

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
