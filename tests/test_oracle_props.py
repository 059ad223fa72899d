"""Sanity checks on the brute-force reference implementations.

The reference functions re-derive every notion by exhaustive enumeration
with none of the engine's pruning, so agreement between the two (checked
at scale in the verification suite and in the acceptance tests) is
meaningful. These tests pin the reference's own behavior on hand-worked
models.
"""

from __future__ import annotations

from actualcause import Event, solve
from actualcause.oracle import (
    oracle_causes_of,
    oracle_direct_cause_sets,
    oracle_hph_vars,
    oracle_is_sufficient,
    oracle_minimal_sufficient_sets,
    oracle_solve,
)
from actualcause.randmodel import random_effect, scenario_stream

from conftest import make_scenario


def test_solve_matches_model_solver():
    for _, scenario in scenario_stream(seed=17, count=50):
        assert oracle_solve(scenario, {}) == solve(scenario)
        # pin each variable at every domain value in turn
        for var in scenario.model.variables:
            for value in scenario.model.domains[var].values:
                assert oracle_solve(scenario, {var: value}) == solve(scenario, {var: value})


def test_is_sufficient_hand_cases():
    chain = make_scenario("a=1; b=a; e=b")
    assert oracle_is_sufficient(chain, {"a": 1}, Event("e", 1))
    assert oracle_is_sufficient(chain, {"b": 1}, Event("e", 1))
    assert not oracle_is_sufficient(chain, {}, Event("e", 1))

    conj = make_scenario("a=1; b=1; e=a & b")
    assert not oracle_is_sufficient(conj, {"a": 1}, Event("e", 1))
    assert oracle_is_sufficient(conj, {"a": 1, "b": 1}, Event("e", 1))


def test_general_mode_roams_derived():
    general = make_scenario("a=1; b=a; e=b", mode="general")
    assert not oracle_is_sufficient(general, {"a": 1}, Event("e", 1))
    assert oracle_is_sufficient(general, {"b": 1}, Event("e", 1))


def test_minimal_sufficient_sets_hand_cases():
    chain = make_scenario("a=1; b=a; e=b")
    assert oracle_minimal_sufficient_sets(chain, Event("e", 1)) == [
        frozenset({Event("a", 1)}),
        frozenset({Event("b", 1)}),
    ]
    conj = make_scenario("a=1; b=1; e=a & b")
    assert oracle_minimal_sufficient_sets(conj, Event("e", 1)) == [
        frozenset({Event("a", 1), Event("b", 1)})
    ]


def test_direct_cause_sets_hand_cases():
    chain = make_scenario("a=1; b=a; e=b")
    assert oracle_direct_cause_sets(chain, Event("e", 1)) == [
        frozenset({Event("b", 1)})
    ]
    # An initial value pinned off both its actual and default value ranks
    # mid, so the flip never certifies and the parent set is screened out.
    skewed = make_scenario("a=0; d=~(a | a); f=~d", domains={"a": (0, 1, 2)})
    assert oracle_direct_cause_sets(skewed, Event("d", 1)) == []


def test_causes_of_anchors():
    chain = make_scenario("a=1; b=a; e=b")
    assert oracle_causes_of(chain, Event("e", 1)) == frozenset(
        {Event("a", 1), Event("b", 1)}
    )


def test_causes_of_continuity_readings(corpus_cases):
    case = corpus_cases["25"]
    default = oracle_causes_of(case.scenario, case.effect)
    chained = oracle_causes_of(
        case.scenario, case.effect, continuity="chain-certified"
    )
    assert {ev.var for ev in default} == {"a", "d", "f"}
    assert {ev.var for ev in chained} == {"a", "c", "d", "f"}


def test_causes_of_variant_restriction(corpus_cases):
    case = corpus_cases["03"]
    full = oracle_causes_of(case.scenario, case.effect)
    strict = oracle_causes_of(case.scenario, case.effect, variant="3prime")
    assert strict <= full
    assert {ev.var for ev in full} == {"a", "c"}
    assert {ev.var for ev in strict} == {"c"}


def test_hph_vars_hand_cases():
    conj = make_scenario("a=1; b=1; e=a & b")
    assert oracle_hph_vars(conj, Event("e", 1)) == frozenset({"a", "b"})
    disj = make_scenario("a=1; b=1; e=a | b")
    assert oracle_hph_vars(disj, Event("e", 1)) == frozenset({"a", "b"})
    single = make_scenario("a=1; e=a")
    assert oracle_hph_vars(single, Event("e", 1)) == frozenset({"a"})


def test_effect_depth_selection():
    scenario = make_scenario("a=1; b=a; c=1; e=b & c")
    assert random_effect(scenario) == Event("e", 1)
