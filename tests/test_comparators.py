"""The Halpern–Hitchcock contrastive definition and its brute-force twin."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actualcause import ActualityError, Event, ModelError, hph_causes
from actualcause.oracle import oracle_hph_vars
from actualcause.randmodel import random_effect, random_scenario, scenario_stream

from conftest import make_scenario


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

    def test_non_actual_effect_rejected(self):
        scenario = make_scenario("a=1; e=a")
        with pytest.raises(ActualityError):
            hph_causes(scenario, Event("e", 0))


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

    def test_agrees_with_brute_force_on_all_cases(self, corpus_cases):
        for case in corpus_cases.values():
            computed = hph_causes(case.scenario, case.effect).vars()
            reference = oracle_hph_vars(case.scenario, case.effect)
            assert computed == reference, f"case {case.id}: {computed} != {reference}"


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
