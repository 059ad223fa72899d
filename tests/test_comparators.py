"""The Halpern–Hitchcock contrastive definition and its brute-force twin."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actualcause import (
    ActualityError,
    Event,
    HPHResult,
    HPHVerdict,
    HPHWitness,
    ModelError,
    SearchTooLargeError,
    hph_causes,
)
from actualcause import comparators
from actualcause.model import solve
from actualcause.normality import Reduction
from actualcause.oracle import oracle_hph_vars
from actualcause.randmodel import random_effect, random_scenario, scenario_stream

from conftest import counting_calls, grouped_conjunction, make_scenario


class TestHandModels:
    def test_conjunction_blames_both(self):
        scenario = make_scenario("a=1; b=1; e=a & b")
        result = hph_causes(scenario, Event("e", 1))
        assert result.vars() == frozenset({"a", "b"})
        # Each conjunct breaks the effect on its own.
        assert all(len(v.contrast_set) == 1 for v in result.verdicts)

    def test_disjunction_blames_both_jointly(self):
        scenario = make_scenario("a=1; b=1; e=a | b")
        result = hph_causes(scenario, Event("e", 1))
        assert result.vars() == frozenset({"a", "b"})
        # Neither disjunct breaks the effect alone; the minimal passing
        # contrast set flips both at once.
        assert all(v.contrast_set == frozenset({"a", "b"}) for v in result.verdicts)

    def test_single_link(self):
        scenario = make_scenario("a=1; e=a")
        assert hph_causes(scenario, Event("e", 1)).vars() == frozenset({"a"})

    def test_no_off_default_ancestors(self):
        scenario = make_scenario("a=0; e=a & ~a")
        assert hph_causes(scenario, Event("e", 0)).vars() == frozenset()

    def test_witness_breaks_the_effect(self):
        scenario = make_scenario("a=1; b=1; e=a & b")
        result = hph_causes(scenario, Event("e", 1))
        for verdict in result.verdicts:
            outcome = dict(verdict.witness.outcome)
            assert outcome["e"] != 1
            for ev in verdict.witness.contrast:
                assert outcome[ev.var] == ev.value
                assert ev.value != scenario.actual_value(ev.var)
            for ev in verdict.witness.frozen:
                assert ev.value == scenario.actual_value(ev.var)

    def test_a_freeze_outside_the_effects_ancestors_can_matter(self):
        # v is no ancestor of e, but unfrozen it follows r off its default
        # and ranks below its actual Top; only freezing it at 1 keeps the
        # world for {x, y} as normal as actuality.  Without that freeze y
        # would leave the result and r join it.
        scenario = make_scenario(
            "x=1; w=1; r=x; y=r | w; v=r; e=x | y | r", defaults={"v": 1}
        )
        effect = Event("e", 1)
        result = hph_causes(scenario, effect)
        assert result.vars() == frozenset({"w", "x", "y"})
        assert result.vars() == oracle_hph_vars(scenario, effect)
        verdict = next(v for v in result.verdicts if v.event.var == "y")
        assert verdict.witness.contrast == frozenset({Event("x", 0), Event("y", 0)})
        assert verdict.witness.frozen == frozenset({Event("v", 1)})

    def test_non_actual_effect_rejected(self):
        scenario = make_scenario("a=1; e=a")
        with pytest.raises(ActualityError):
            hph_causes(scenario, Event("e", 0))


class TestEnumerationCap:
    """The contrast-set walk is checked against the cap, and each witness
    search counts only freezes the contrast set can move."""

    def test_contrast_set_walk_at_the_cap(self, monkeypatch):
        # 8 xi and 2 yg, all off their defaults: 2**10 contrast sets
        monkeypatch.setattr("actualcause.model.ENUMERATION_CAP", 1 << 10)
        scenario = make_scenario(grouped_conjunction(4, 4))
        assert len(hph_causes(scenario, Event("e", 1)).vars()) == 10

    def test_contrast_set_walk_past_the_cap(self, monkeypatch):
        monkeypatch.setattr("actualcause.model.ENUMERATION_CAP", 1 << 10)
        scenario = make_scenario(grouped_conjunction(4, 5))
        searched = []
        monkeypatch.setattr(comparators, "_find_witness", lambda *args: searched.append(args))
        with pytest.raises(
            SearchTooLargeError,
            match=r"^contrast-set walk for e=1 has 2048 contrast sets, cap 1024$",
        ):
            hph_causes(scenario, Event("e", 1))
        assert searched == []

    def test_contrast_set_walk_at_the_real_cap(self, monkeypatch):
        # 18 xi and 2 yg: 2**20 contrast sets, but every singleton passes,
        # so only the 20 singletons are searched.
        scenario = make_scenario(grouped_conjunction(9, 9))
        searched = []
        original = comparators._find_witness

        def counting(*args):
            searched.append(args)
            return original(*args)

        monkeypatch.setattr(comparators, "_find_witness", counting)
        assert len(hph_causes(scenario, Event("e", 1)).vars()) == 20
        assert len(searched) == 20

    def test_inert_variables_do_not_count(self):
        # The 21 xi sit at their defaults but no contrast moves them, so the
        # freeze pool of {a} is empty rather than 2**21 subsets.
        inert = "; ".join(f"x{i}=0" for i in range(21))
        scenario = make_scenario(f"a=1; {inert}; e=a")
        assert hph_causes(scenario, Event("e", 1)).vars() == frozenset({"a"})

    def test_descendants_of_the_contrast_still_count(self):
        # Each di follows a, so all 21 are freeze candidates for {a}.
        moved = "; ".join(f"d{i}=~a" for i in range(21))
        scenario = make_scenario(f"a=1; {moved}; e=a | d0")
        with pytest.raises(
            SearchTooLargeError,
            match=r"^contrast search over \['a'\] has 2097152 candidate worlds, cap 1048576$",
        ):
            hph_causes(scenario, Event("e", 1))

    def test_an_effect_that_cannot_change_is_answered_past_the_cap(self):
        # The same 21 freeze candidates, but e = d0 | ~d0 holds whatever d0
        # is, so {a} has no witness and is answered before its 2**21
        # candidate worlds are counted; checking the cap first raised.
        moved = "; ".join(f"d{i}=~a" for i in range(21))
        scenario = make_scenario(f"a=1; {moved}; e=d0 | ~d0")
        assert comparators._reach(scenario, frozenset({"a"}), "e")[1] == {1}
        assert hph_causes(scenario, Event("e", 1)) == HPHResult(
            Event("e", 1), frozenset(), ()
        )


class TestCorpusAnchors:
    """Frozen contrastive verdicts on benchmark cases, including every case
    where this definition departs from the recorded judgements."""

    EXPECTED = {
        "03": {"c"},
        "06": {"a", "d"},
        "12": {"a", "b", "c", "f"},
        "14": {"c"},
        "25": {"a", "d"},
        "29": {"a", "b", "c", "d"},
        "33": {"a", "b", "f"},
        "34": set(),
        "41": {"a", "c"},
        "43": {"b", "c"},
        "49": {"m"},
        "62": {"b", "c", "d", "g", "h"},
        "66": {"b", "c"},
    }

    @pytest.mark.parametrize("case_id", sorted(EXPECTED))
    def test_frozen_verdicts(self, corpus_cases, case_id):
        case = corpus_cases[case_id]
        result = hph_causes(case.scenario, case.effect)
        assert result.vars() == frozenset(self.EXPECTED[case_id])

    def test_world_count_over_the_corpus(self, corpus_cases, monkeypatch):
        # A work-count regression gate: the worlds the comparator solves
        # over all 66 cases move only when its search changes on purpose.
        # Contrast sets under which the effect cannot change are not
        # searched; searching them too would solve 351.
        solved = counting_calls(monkeypatch, comparators, "solve")
        for case in corpus_cases.values():
            hph_causes(case.scenario, case.effect)
        assert len(corpus_cases) == 66
        assert len(solved) == 185

    def test_agrees_with_brute_force_on_all_cases(self, corpus_cases):
        for case in corpus_cases.values():
            computed = hph_causes(case.scenario, case.effect).vars()
            reference = oracle_hph_vars(case.scenario, case.effect)
            assert computed == reference, f"case {case.id}: {computed} != {reference}"


def candidate_effect_values(scenario, contrast_set, effect_var):
    """The effect's value in every candidate world of the contrast set,
    solved one by one: each contrast vector off the actual values, times
    each freeze set of the contrast set's strict descendants."""
    model = scenario.model
    actual = scenario.actual()
    ordered = sorted(contrast_set)
    descendants = [
        v
        for v in model.variables
        if v not in contrast_set and model.ancestors(v) & contrast_set
    ]
    off_actual = [[x for x in model.domains[v] if x != actual[v]] for v in ordered]
    values = set()
    for vector in itertools.product(*off_actual):
        for mask in range(1 << len(descendants)):
            pins = dict(zip(ordered, vector))
            pins.update({v: actual[v] for i, v in enumerate(descendants) if mask >> i & 1})
            values.add(solve(scenario, pins)[effect_var])
    return values


class TestEffectReach:
    """`_reach` bounds the effect's values before any world is solved."""

    def test_its_values_hold_every_candidate_world(self):
        # Every nonempty set of ancestors of each model's deepest variable:
        # a sound bound holds every value a candidate world gives the
        # effect, so the sets it rules out never break the effect.
        contrast_sets = ruled_out = 0
        for index, scenario in scenario_stream(23, 400, max_vars=8):
            effect = random_effect(scenario)
            ancestors = sorted(scenario.model.ancestors(effect.var))
            for size in range(1, len(ancestors) + 1):
                for combo in itertools.combinations(ancestors, size):
                    contrast_set = frozenset(combo)
                    moved, values = comparators._reach(scenario, contrast_set, effect.var)
                    reached = candidate_effect_values(scenario, contrast_set, effect.var)
                    assert reached <= values, (index, combo)
                    assert moved == contrast_set | {
                        v
                        for v in scenario.model.variables
                        if scenario.model.ancestors(v) & contrast_set
                    }
                    contrast_sets += 1
                    ruled_out += values == {effect.value}
        assert (contrast_sets, ruled_out) == (2708, 1404)

    def test_contrast_sets_ruled_out_over_the_corpus(self, corpus_cases, monkeypatch):
        # Of the contrast sets the comparator searches over the 66 cases,
        # those under which the effect cannot change; none has a witness.
        searched = []
        original = comparators._find_witness

        def counting(scenario, contrast_set, effect):
            witness = original(scenario, contrast_set, effect)
            values = comparators._reach(scenario, contrast_set, effect.var)[1]
            searched.append(values == {effect.value})
            assert witness is None or not searched[-1]
            return witness

        monkeypatch.setattr(comparators, "_find_witness", counting)
        for case in corpus_cases.values():
            hph_causes(case.scenario, case.effect)
        assert (len(searched), sum(searched)) == (245, 100)

    @pytest.mark.parametrize(
        ("max_vars", "index", "expected", "solves"),
        [(32, 7, set(), 0), (40, 1, {"a", "b", "c", "j", "l", "q", "s"}, 17)],
    )
    def test_stream_models_with_internal_paths(
        self, monkeypatch, max_vars, index, expected, solves
    ):
        # 26-variable models with contrast sets of up to 262 144 candidate
        # worlds each: searching every contrast set solves 589 833 and
        # 3 485 742 worlds, though most of those sets cannot change the
        # effect.
        scenario = next(s for i, s in scenario_stream(1, 60, max_vars=max_vars) if i == index)
        solved = counting_calls(monkeypatch, comparators, "solve")
        assert hph_causes(scenario, random_effect(scenario)).vars() == expected
        assert len(solved) == solves


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_agrees_with_brute_force_on_random_models(seed):
    try:
        scenario = random_scenario(random.Random(seed), max_vars=5)
    except ModelError:
        return
    effect = random_effect(scenario)
    assert hph_causes(scenario, effect).vars() == oracle_hph_vars(scenario, effect)


def test_agrees_with_brute_force_on_a_random_stream():
    queries = 0
    for index, scenario in scenario_stream(41, 120, max_vars=7):
        for var in scenario.model.variables[-2:]:
            effect = Event(var, scenario.actual_value(var))
            expected = oracle_hph_vars(scenario, effect)
            assert hph_causes(scenario, effect).vars() == expected, (index, var)
            queries += 1
    assert queries == 240


def unpruned_hph(scenario, effect):
    """`hph_causes` with its freeze pool unpruned: every kept-or-removed
    variable the lattice lets survive is a freeze candidate, whether or not
    the contrast set can move it.  Which contrast values and freezes the
    lattice lets survive is written out here by hand, so comparing results
    also checks `Reduction.pinnable`, which `hph_causes` reads them from.
    Returns the result and how many freeze pools held a variable outside
    the contrast set's descendants."""
    model = scenario.model
    actual = scenario.actual()
    contrastable = [
        v
        for v in sorted(model.ancestors(effect.var))
        if actual[v] != scenario.defaults[v]
    ]
    inert_pools = 0

    def first_witness(contrast_set):
        nonlocal inert_pools
        reduction = Reduction(scenario, contrast_set)
        # initial in the reduction: every parent removed
        initial = {
            v for v in model.variables if reduction.removed.keys() >= set(model.parents(v))
        }
        ordered = [v for v in model.variables if v in contrast_set]
        choices = []
        for var in ordered:
            default = scenario.defaults[var]
            legal = [default] if default in model.domains[var] else []
            if var in initial:
                legal.extend(
                    value
                    for value in model.domains[var]
                    if value != actual[var] and value != default
                )
            if not legal:
                return None
            choices.append(legal)
        pool = [
            var
            for var in model.variables
            if var != effect.var
            and var not in contrast_set
            and (
                var in reduction.removed
                or actual[var] == scenario.defaults[var]
                or var in initial
            )
        ]
        moved = set()
        for var in model.topological_order():
            if (contrast_set | moved).intersection(model.parents(var)):
                moved.add(var)
        inert_pools += any(v not in moved for v in pool)
        for vector in itertools.product(*choices):
            contrast = dict(zip(ordered, vector))
            for count in range(len(pool) + 1):
                for frozen in itertools.combinations(pool, count):
                    overrides = {**contrast, **{v: actual[v] for v in frozen}}
                    world = solve(scenario, overrides)
                    if world[effect.var] == effect.value:
                        continue
                    if reduction.no_less_normal(world, overrides, unranked=effect.var):
                        return HPHWitness(
                            contrast=frozenset(Event(v, contrast[v]) for v in ordered),
                            frozen=frozenset(Event(v, actual[v]) for v in frozen),
                            outcome=tuple(sorted(world.items())),
                        )
        return None

    minimal = []
    verdicts = []
    reported = set()
    for size in range(1, len(contrastable) + 1):
        for combo in itertools.combinations(contrastable, size):
            contrast_set = frozenset(combo)
            if any(small <= contrast_set for small in minimal):
                continue
            witness = first_witness(contrast_set)
            if witness is None:
                continue
            minimal.append(contrast_set)
            for var in combo:
                event = Event(var, actual[var])
                if event not in reported:
                    reported.add(event)
                    verdicts.append(HPHVerdict(event, contrast_set, witness))
    result = HPHResult(effect, frozenset(reported), tuple(verdicts))
    return result, inert_pools


def test_witnesses_match_the_unpruned_freeze_search():
    # Whole results are compared with ==, verdict order and witnesses
    # included; a repr would depend on the hash seed through frozensets.
    queries = inert = 0
    for index, scenario in scenario_stream(5, 200, max_vars=10):
        for var in scenario.model.variables[-3:]:
            effect = Event(var, scenario.actual_value(var))
            expected, inert_pools = unpruned_hph(scenario, effect)
            assert hph_causes(scenario, effect) == expected, (index, var)
            queries += 1
            inert += inert_pools
    assert queries == 578
    # freeze pools that the contrast set's descendants alone would shrink
    assert inert > 500
