"""End-to-end cause finding: certification, continuity, variants, and the
intention rule."""

from __future__ import annotations

import dataclasses

import pytest

from actualcause import (
    DEFAULT_OPTIONS,
    ActualityError,
    EngineOptions,
    Event,
    Model,
    ModelError,
    NoParentsError,
    ReasoningError,
    analyze,
    cause_nets,
    causes_of,
    distance,
    extrapolate,
    flank,
    hph_causes,
    intentional_causes,
    interpolate,
    is_actual_cause,
    parse_case,
)
from actualcause.oracle import oracle_causes_of
from actualcause.randmodel import random_effect, scenario_stream

from conftest import corpus_dir, counting_calls, make_scenario


def cause_strings(scenario, effect, options=DEFAULT_OPTIONS):
    return sorted(ev.render() for ev in causes_of(scenario, effect, options))


class TestEngineOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abnormality_variant": "4"},
            {"continuity": "none"},
            {"abnormality_variant": "single-event"},
        ],
    )
    def test_rejects_unknown_settings(self, kwargs):
        with pytest.raises(ModelError):
            EngineOptions(**kwargs)

    def test_defaults(self):
        assert DEFAULT_OPTIONS.abnormality_variant == "3"
        assert DEFAULT_OPTIONS.continuity == "plan-membership"


class TestChainModel:
    def test_both_links_are_causes(self):
        scenario = make_scenario("a=1; b=a; e=b")
        assert cause_strings(scenario, Event("e", 1)) == ["a=1", "b=1"]

    def test_verdict_shape(self):
        scenario = make_scenario("a=1; b=a; e=b")
        verdict = is_actual_cause(scenario, Event("a", 1), Event("e", 1))
        assert verdict.is_cause
        assert verdict.chain == ("a", "b", "e")
        assert verdict.witness is not None
        assert "a -> b -> e" in verdict.reason
        direct = is_actual_cause(scenario, Event("b", 1), Event("e", 1))
        assert direct.chain == ("b", "e")
        assert direct.plan == frozenset({Event("b", 1)})

    def test_uncertified_event_reason(self):
        # a's only contrast pins it off both its actual and default value,
        # so no plan containing it passes the abnormality screen.
        verdict = is_actual_cause(
            make_scenario("a=0; b=~(0 | a); c=b"), Event("a", 0), Event("c", 1)
        )
        assert not verdict.is_cause
        assert "no passing plan" in verdict.reason

    def test_cause_equal_to_effect_rejected(self):
        scenario = make_scenario("a=1; e=a")
        with pytest.raises(ModelError):
            is_actual_cause(scenario, Event("e", 1), Event("e", 1))

    def test_non_actual_events_rejected(self):
        scenario = make_scenario("a=1; e=a")
        with pytest.raises(ActualityError):
            causes_of(scenario, Event("e", 0))
        with pytest.raises(ActualityError):
            is_actual_cause(scenario, Event("a", 0), Event("e", 1))

    def test_general_mode(self):
        # In general mode only the direct parent is a cause: with derived
        # variables roaming, no upstream pin is sufficient.
        reliable = make_scenario("a=1; b=a; e=b")
        general = make_scenario("a=1; b=a; e=b", mode="general")
        assert cause_strings(general, Event("e", 1)) == ["b=1"]
        assert cause_strings(
            dataclasses.replace(reliable, mode="general"), Event("e", 1)
        ) == ["b=1"]
        assert cause_strings(reliable, Event("e", 1)) == ["a=1", "b=1"]


class TestCorpusAnchors:
    """Reference verdicts worked out by hand for specific benchmark cases."""

    def test_conjunctive_pair_case(self, corpus_cases):
        case = corpus_cases["13"]
        assert cause_strings(case.scenario, case.effect) == ["c=1"]

    def test_constant_effect_case(self, corpus_cases):
        case = corpus_cases["18"]
        assert cause_strings(case.scenario, case.effect) == []

    def test_dead_end_branch_case(self, corpus_cases):
        # a and b sit on a branch that never certifies toward the effect.
        case = corpus_cases["05"]
        assert cause_strings(case.scenario, case.effect) == ["c=1", "f=1"]
        verdict = is_actual_cause(
            case.scenario,
            Event("a", case.scenario.actual_value("a")),
            case.effect,
        )
        assert not verdict.is_cause

    def test_continuity_readings_differ_on_one_case(self, corpus_cases):
        case = corpus_cases["25"]
        assert cause_strings(case.scenario, case.effect) == [
            "a=1",
            "d=1",
            "f=0",
        ]
        assert cause_strings(
            case.scenario, case.effect, EngineOptions(continuity="chain-certified")
        ) == ["a=1", "c=1", "d=1", "f=0"]
        # Under the default reading c is certified toward the effect but no
        # chain of passing plan members reaches it.
        verdict = is_actual_cause(case.scenario, Event("c", 1), case.effect)
        assert not verdict.is_cause
        assert "chain" in verdict.reason

    def test_single_event_variant_drops_omissions(self, corpus_cases):
        case = corpus_cases["03"]
        assert cause_strings(case.scenario, case.effect) == ["a=0", "c=1"]
        assert cause_strings(
            case.scenario, case.effect, EngineOptions(abnormality_variant="3prime")
        ) == ["c=1"]


@pytest.mark.parametrize("mode", ["reliable", "general"])
def test_single_event_variant_matches_the_oracle(mode):
    # the engine reads the single-flip witnesses of the set-level search; the
    # oracle searches each variable's single-event contrasts on its own
    strict = EngineOptions(abnormality_variant="3prime")
    queries = 0
    for index, scenario in scenario_stream(53, 60, max_vars=7, mode=mode):
        for var in scenario.model.variables:
            if scenario.model.is_initial(var):
                continue
            effect = Event(var, scenario.actual_value(var))
            expected = oracle_causes_of(scenario, effect, variant="3prime")
            assert causes_of(scenario, effect, strict) == expected, (index, var)
            queries += 1
    assert queries == 145


class TestIntentionRule:
    def test_careful_poisoning(self):
        # Two agents, each acting through an intention; the second action
        # both enables and defeats the effect, which never fires.
        scenario = make_scenario(
            "ai=1; bi=1; a=ai; b=bi & a; e=~a & b",
            intentions=(("ai", "a"), ("bi", "b")),
        )
        assert causes_of(scenario, Event("e", 0)) == frozenset()
        assert intentional_causes(scenario, Event("e", 0)) == frozenset()

    def test_dual_switch(self):
        # Both actions are intended, but only the first actually operates:
        # the rule keeps it and its intention.
        scenario = make_scenario(
            "ji=1; ki=1; j=ji; k=ki & ~j; e=(j & ~k) | (~j & k)",
            intentions=(("ji", "j"), ("ki", "k")),
        )
        expected = frozenset({Event("j", 1), Event("ji", 1)})
        assert causes_of(scenario, Event("e", 1)) == expected
        assert intentional_causes(scenario, Event("e", 1)) == expected

    def test_rule_filters_unintended_action(self, corpus_cases):
        case = corpus_cases["38"]
        raw = {ev.var for ev in causes_of(case.scenario, case.effect)}
        ruled = {ev.var for ev in intentional_causes(case.scenario, case.effect)}
        assert raw == {"a", "b", "g"}
        assert ruled == {"b", "g"}


class TestAnalyze:
    def test_exposes_graph_and_verdicts(self):
        scenario = make_scenario("a=1; b=a; e=b")
        analysis = analyze(scenario, Event("e", 1))
        assert analysis.effect == Event("e", 1)
        assert analysis.verdict_for(Event("a", 1)).is_cause
        assert analysis.chain_for("a") == ("a", "b", "e")
        assert analysis.chain_for("e") == ("e",)


def test_no_model_is_built_after_parsing(monkeypatch):
    # Every query reads the value tables of the model it was given: both
    # abnormality variants, the comparator, and the net operations on the
    # first nets, over the corpus and a random sample, on fresh scenarios.
    queries = [
        (case.scenario, case.effect)
        for case in (
            parse_case(path.read_text(encoding="utf-8"))
            for path in sorted(corpus_dir().glob("*.case"))
        )
    ]
    queries += [
        (scenario, random_effect(scenario))
        for _, scenario in scenario_stream(seed=5, count=60, max_vars=9)
    ]
    built = counting_calls(monkeypatch, Model, "__init__")
    prime = EngineOptions(abnormality_variant="3prime")
    operations = 0
    for scenario, effect in queries:
        intentional_causes(scenario, effect)
        causes_of(scenario, effect, prime)
        hph_causes(scenario, effect)
        try:
            nets = cause_nets(scenario, effect)[:5]
        except (ReasoningError, NoParentsError):
            continue
        for net in nets:
            calls = [(distance, net, effect)] + [
                (operation, net, member, effect)
                for member in sorted(net.events)
                for operation in (interpolate, extrapolate, flank)
            ]
            for operation, *args in calls:
                try:
                    operation(scenario, *args)
                except ReasoningError:
                    pass
                operations += 1
    assert len(queries) == 126
    assert operations > 500
    assert built == []
