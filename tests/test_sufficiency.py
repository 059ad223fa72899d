"""Sufficient sets, minimality, direct causes, and the restricted scenario."""

from __future__ import annotations

import itertools
import re

import pytest

from actualcause import (
    ActualityError,
    Event,
    NoParentsError,
    SearchTooLargeError,
    direct_cause_graph,
    direct_cause_sets,
    hph_causes,
    intentional_causes,
    is_direct_cause,
    is_sufficient,
    minimal_sufficient_sets,
    restricted_scenario,
)
from actualcause import parse_case, sufficiency
from actualcause.oracle import oracle_minimal_sufficient_sets
from actualcause.randmodel import random_effect, scenario_stream

from conftest import WIDE_FORMULAS, copy_chain, corpus_dir, counting_calls, make_scenario


def plan_of(*events: Event) -> frozenset[Event]:
    return frozenset(events)


def var_sets(sets) -> list[list[str]]:
    return [sorted(ev.var for ev in events) for events in sets]


def plain_minimal_sufficient_sets(scenario, effect) -> list[frozenset[Event]]:
    """The walk without reused worlds: every candidate that is not a superset
    of a sufficient set is tested with `is_sufficient`."""
    actual = scenario.actual()
    candidates = sorted(scenario.model.ancestors(effect.var))
    found: list[frozenset[Event]] = []
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            events = frozenset(Event(v, actual[v]) for v in combo)
            if any(small <= events for small in found):
                continue
            if is_sufficient(scenario, events, effect):
                found.append(events)
    return found


class TestIsSufficient:
    def test_chain(self):
        scenario = make_scenario("a=1; b=a; e=b")
        effect = Event("e", 1)
        assert is_sufficient(scenario, plan_of(Event("a", 1)), effect)
        assert is_sufficient(scenario, plan_of(Event("b", 1)), effect)
        # The empty plan leaves a roaming, which can zero the effect.
        assert not is_sufficient(scenario, plan_of(), effect)

    def test_conjunctive(self):
        scenario = make_scenario("a=1; b=1; e=a & b")
        effect = Event("e", 1)
        assert not is_sufficient(scenario, plan_of(Event("a", 1)), effect)
        assert is_sufficient(
            scenario, plan_of(Event("a", 1), Event("b", 1)), effect
        )

    def test_non_actual_effect_is_never_forced(self):
        scenario = make_scenario("a=1; e=a")
        assert not is_sufficient(scenario, plan_of(), Event("e", 0))

    def test_non_actual_pin_rejected(self):
        scenario = make_scenario("a=1; e=a")
        with pytest.raises(ActualityError):
            is_sufficient(scenario, plan_of(Event("a", 0)), Event("e", 1))

    def test_pinning_a_variable_twice_is_rejected(self):
        # At most one of two values is actual, so the actuality check
        # refuses any event set that pins a variable twice.
        scenario = make_scenario("a=1; e=a")
        with pytest.raises(ActualityError):
            is_sufficient(scenario, plan_of(Event("a", 0), Event("a", 1)), Event("e", 1))

    def test_cap(self, monkeypatch):
        # The search refuses a background space past ENUMERATION_CAP before
        # it solves a single background.
        scenario = make_scenario(WIDE_FORMULAS)
        solved = []
        monkeypatch.setattr(sufficiency, "solve", lambda *args: solved.append(args))
        with pytest.raises(SearchTooLargeError):
            is_sufficient(scenario, plan_of(), Event("e", 1))
        assert solved == []

    def test_general_mode_roams_derived_variables(self):
        # Pinning the root is enough in reliable mode, where derived
        # variables follow their equations, but not in general mode.
        reliable = make_scenario("a=1; b=a; e=b")
        general = make_scenario("a=1; b=a; e=b", mode="general")
        plan = plan_of(Event("a", 1))
        assert is_sufficient(reliable, plan, Event("e", 1))
        assert not is_sufficient(general, plan, Event("e", 1))


class TestMinimalSufficientSets:
    def test_chain_ordering(self):
        scenario = make_scenario("a=1; b=a; e=b")
        assert var_sets(minimal_sufficient_sets(scenario, Event("e", 1))) == [
            ["a"],
            ["b"],
        ]

    def test_disjunctive(self):
        scenario = make_scenario("a=1; b=1; e=a | b")
        assert var_sets(minimal_sufficient_sets(scenario, Event("e", 1))) == [
            ["a"],
            ["b"],
        ]

    def test_conjunctive(self):
        scenario = make_scenario("a=1; b=1; e=a & b")
        assert var_sets(minimal_sufficient_sets(scenario, Event("e", 1))) == [
            ["a", "b"]
        ]

    def test_guaranteed_effect_has_empty_set(self):
        scenario = make_scenario("a=1; e=a | ~a")
        assert var_sets(minimal_sufficient_sets(scenario, Event("e", 1))) == [[]]

    def test_members_pin_actual_values(self):
        scenario = make_scenario("a=0; e=~a")
        assert minimal_sufficient_sets(scenario, Event("e", 1)) == [
            frozenset({Event("a", 0)})
        ]

    @pytest.mark.parametrize("mode", ["reliable", "general"])
    def test_non_ancestors_never_appear(self, mode):
        # z (initial) and w (derived) are not ancestors of e.
        scenario = make_scenario("a=1; z=1; b=a; w=z & a; e=b", mode=mode)
        effect = Event("e", 1)
        sets = minimal_sufficient_sets(scenario, effect)
        expected = [["a"], ["b"]] if mode == "reliable" else [["b"]]
        assert var_sets(sets) == expected
        assert sets == oracle_minimal_sufficient_sets(scenario, effect)

    def test_wide_domain_case(self, corpus_cases):
        # Independently brute-forced reference answer for the largest
        # non-binary benchmark case.
        case = corpus_cases["62"]
        assert var_sets(minimal_sufficient_sets(case.scenario, case.effect)) == [
            ["c"],
            ["a", "b"],
            ["a", "g"],
            ["b", "h"],
            ["d", "h"],
            ["f", "g"],
            ["g", "h"],
        ]


class TestDirectCauses:
    def test_chain(self):
        scenario = make_scenario("a=1; b=a; e=b")
        assert direct_cause_sets(scenario, Event("e", 1)) == [
            frozenset({Event("b", 1)})
        ]
        assert is_direct_cause(scenario, Event("b", 1), Event("e", 1))
        assert not is_direct_cause(scenario, Event("a", 1), Event("e", 1))

    def test_initial_target_rejected(self):
        scenario = make_scenario("a=1; e=a")
        with pytest.raises(NoParentsError):
            direct_cause_sets(scenario, Event("a", 1))

    def test_conjunctive_parents_form_one_set(self):
        scenario = make_scenario("a=1; b=1; e=a & b")
        assert direct_cause_sets(scenario, Event("e", 1)) == [
            frozenset({Event("a", 1), Event("b", 1)})
        ]

    def test_at_default_contrasts_do_not_certify(self):
        # A parent pinned away from its default is ranked mid, so no
        # contrast passes and the parent set is not a direct cause.
        scenario = make_scenario(
            "a=0; d=~(a | a); f=~d", domains={"a": (0, 1, 2)}
        )
        assert direct_cause_sets(scenario, Event("d", 1)) == []

    def test_graph(self):
        scenario = make_scenario("a=1; b=a; c=1; e=b & c")
        graph = direct_cause_graph(scenario)
        assert graph == {
            "a": frozenset(),
            "b": frozenset({"a"}),
            "c": frozenset(),
            "e": frozenset({"b", "c"}),
        }


class TestRestrictedScenario:
    def test_parents_become_initial(self):
        scenario = make_scenario("a=1; b=a; e=~b")
        restricted = restricted_scenario(scenario, "e")
        assert restricted.model.is_initial("b")
        assert restricted.actual_value("b") == 1
        assert restricted.actual_value("e") == 0
        # Non-parents keep their equations.
        assert not restricted.model.is_initial("e")


class TestProperties:
    def test_minimal_sufficient_sets_properties(self):
        for _, scenario in scenario_stream(seed=5, count=40):
            effect = random_effect(scenario)
            sets = minimal_sufficient_sets(scenario, effect)
            keys = []
            for events in sets:
                assert is_sufficient(scenario, events, effect)
                # Minimality: dropping any one member breaks sufficiency
                # (sufficiency is upward monotone over actual-value pins).
                for member in events:
                    assert not is_sufficient(scenario, events - {member}, effect)
                keys.append((len(events), tuple(sorted(ev.var for ev in events))))
            assert keys == sorted(keys), "results must be ordered by size then name"
            for i, first in enumerate(sets):
                for second in sets[i + 1 :]:
                    assert not first < second and not second < first

    @pytest.mark.parametrize("mode", ["reliable", "general"])
    def test_matches_oracle_for_every_variable(self, mode):
        # Ancestor pruning matters most on intermediate targets, so every
        # variable's actual event is checked, not only the deepest one.
        for _, scenario in scenario_stream(seed=23, count=80, max_vars=7, mode=mode):
            for var in scenario.model.variables:
                effect = Event(var, scenario.actual_value(var))
                engine = minimal_sufficient_sets(scenario, effect)
                assert engine == oracle_minimal_sufficient_sets(scenario, effect)


class TestFalsifyingWorldReuse:
    """The walk skips a candidate that a stored falsifying world refutes."""

    def test_a_broken_equation_refutes_only_sets_that_pin_it(self):
        # Reliable mode; a, b, d and e are 0 and f is 1 in the actual world.
        # Pinning d = 0 while b roams to 1 breaks d = b, and that world w
        # (a=0, b=1, d=0, e=0) zeroes f: D(w) = {b}, B(w) = {d}.  {e} avoids
        # D(w) but leaves d to its equation, so w does not refute it: with e
        # pinned, d copies b and f holds under every background.  Ignoring
        # B(w) would drop {e}.
        scenario = make_scenario("a=0; b=0; d=b; e=a & b; f=~e & (d == b)")
        effect = Event("f", 1)
        sets = minimal_sufficient_sets(scenario, effect)
        assert var_sets(sets) == [["a"], ["b"], ["e"]]
        assert not is_sufficient(scenario, plan_of(Event("d", 0)), effect)
        assert sets == plain_minimal_sufficient_sets(scenario, effect)

    @pytest.mark.parametrize("mode", ["reliable", "general"])
    def test_matches_a_plain_walk_for_every_variable(self, mode, monkeypatch):
        # Every domain value of every variable, so non-actual and initial
        # effects are covered; domains up to {0, 1, 2}.  The reliable stream
        # holds a target whose answer changes if a broken equation is
        # ignored.  In reliable mode the 852 queries whose ancestors are all
        # initial take the transversal search and the rest take the walk.
        searched = counting_calls(monkeypatch, sufficiency, "_transversal_search")
        queries = 0
        for index, scenario in scenario_stream(seed=4, count=100, max_vars=8, mode=mode):
            for var in scenario.model.variables:
                for value in scenario.model.domains[var].values:
                    effect = Event(var, value)
                    expected = plain_minimal_sufficient_sets(scenario, effect)
                    assert minimal_sufficient_sets(scenario, effect) == expected, (index, effect)
                    queries += 1
        assert queries == 1233
        assert len(searched) == {"reliable": 852, "general": 1233}[mode]

    def test_solve_count_or_of_eleven(self, monkeypatch):
        # A work-count regression gate: a plain walk solves 4 095 worlds
        # here, but stored worlds that each raise one xi refute every set
        # short of all eleven.
        scenario = make_scenario(
            "; ".join([f"x{i}=0" for i in range(11)])
            + "; e=~(" + " | ".join(f"x{i}" for i in range(11)) + ")"
        )
        solved = counting_calls(monkeypatch, sufficiency, "solve")
        sets = minimal_sufficient_sets(scenario, Event("e", 1))
        assert var_sets(sets) == [sorted(f"x{i}" for i in range(11))]
        assert len(solved) == 23

    def test_solve_count_over_the_corpus(self, monkeypatch):
        # Fresh scenarios, so no memo entry is shared with other tests; a
        # plain walk solves 1 355 worlds.
        solved = counting_calls(monkeypatch, sufficiency, "solve")
        cases = 0
        for path in sorted(corpus_dir().glob("*.case")):
            case = parse_case(path.read_text(encoding="utf-8"))
            minimal_sufficient_sets(case.scenario, case.effect)
            cases += 1
        assert cases == 66
        assert len(solved) == 935

    def test_settings_count_over_the_corpus(self, monkeypatch):
        # A work-count regression gate on the backgrounds the sufficiency
        # checks enumerate (before each one's early exit) for the bench's
        # two queries, on fresh scenarios.
        settings = []
        original = sufficiency.enumerate_settings

        def counting(*args):
            for setting in original(*args):
                settings.append(setting)
                yield setting

        monkeypatch.setattr(sufficiency, "enumerate_settings", counting)
        cases = 0
        for path in sorted(corpus_dir().glob("*.case")):
            case = parse_case(path.read_text(encoding="utf-8"))
            intentional_causes(case.scenario, case.effect)
            hph_causes(case.scenario, case.effect)
            cases += 1
        assert cases == 66
        assert len(settings) == 1923


class TestTransversalSearch:
    """Where sufficiency is monotone, the minimal sufficient sets are the
    minimal transversals of the falsifying worlds' D masks."""

    def test_add_edge(self):
        # Transversals of {a, b}, then of {a, b} and {c, d} (bit 0 is a);
        # an empty edge leaves none.
        first = sufficiency._add_edge([0], 0b0011)
        assert first == [0b0001, 0b0010]
        assert sufficiency._add_edge(first, 0b1100) == [0b0101, 0b1001, 0b0110, 0b1010]
        assert sufficiency._add_edge(first, 0b0110) == [0b0010, 0b0101]
        assert sufficiency._add_edge(first, 0) == []

    @pytest.mark.parametrize("mode", ["reliable", "general"])
    def test_two_disjunctions(self, mode, monkeypatch):
        # The empty set, then {a}, {b}, {c} and {d}, each fail with every
        # other variable at 0, adding the D masks {a,b,c,d}, {b,c,d},
        # {a,c,d}, {a,b,d} and {a,b,c}; their transversals are the six pairs.
        # {a,b} and {c,d} fail next, adding {c,d} and {a,b}, whose minimal
        # transversals are the four pairs below, and each passes.
        scenario = make_scenario("a=1; b=1; c=1; d=1; e=(a|b)&(c|d)", mode=mode)
        effect = Event("e", 1)
        solved = counting_calls(monkeypatch, sufficiency, "solve")
        searched = counting_calls(monkeypatch, sufficiency, "_transversal_search")
        sets = minimal_sufficient_sets(scenario, effect)
        assert var_sets(sets) == [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]]
        assert len(searched) == 1
        # one solve for each of the seven failing sets, and the four
        # backgrounds of each passing pair
        assert len(solved) == 7 + 4 * 4
        assert sets == plain_minimal_sufficient_sets(scenario, effect)

    @pytest.mark.parametrize("mode", ["reliable", "general"])
    def test_effect_that_misses_with_every_ancestor_actual(self, mode):
        # D(w) is empty, so no set is sufficient.
        scenario = make_scenario("a=1; b=1; e=a & b", mode=mode)
        assert minimal_sufficient_sets(scenario, Event("e", 0)) == []


class TestWalkBound:
    """The walk builds only candidate masks grown from sets that fail, but
    checks the number of all 2**n of them against the cap, so the inputs it
    accepts do not depend on what it meets."""

    def test_copy_chain(self, monkeypatch):
        # Reliable mode with derived candidates: the walk.  The empty set
        # roams x0 alone, so only the walk's own check can stop it.
        monkeypatch.setattr("actualcause.model.ENUMERATION_CAP", 1 << 10)
        short = make_scenario(copy_chain(10))
        sets = minimal_sufficient_sets(short, Event("x10", 0))
        assert var_sets(sets) == [[f"x{i}"] for i in range(10)]
        long = make_scenario(copy_chain(11))
        with pytest.raises(
            SearchTooLargeError,
            match=r"sufficient-set walk for x11=0 has 2048 candidate sets, cap 1024",
        ):
            minimal_sufficient_sets(long, Event("x11", 0))

    def test_copy_chain_at_the_real_cap(self, monkeypatch):
        # 2**20 candidate masks, but every singleton passes, so the walk
        # tests the empty set and the 20 singletons alone: 21 sets, whose
        # backgrounds take 41 solves (x0 roams under all but {x0}).
        tested = counting_calls(monkeypatch, sufficiency, "_falsifying_world")
        solved = counting_calls(monkeypatch, sufficiency, "solve")
        sets = minimal_sufficient_sets(make_scenario(copy_chain(20)), Event("x20", 0))
        assert var_sets(sets) == [[v] for v in sorted(f"x{i}" for i in range(20))]
        assert len(tested) == 21
        assert len(solved) == 41

    def test_a_wide_background_keeps_its_message(self):
        # The empty set's background is checked before the walk's masks.
        scenario = make_scenario(WIDE_FORMULAS)
        roaming = [f"x{i}" for i in range(22)]
        message = f"assignment space over {roaming} has 4194304 settings, cap 1048576"
        with pytest.raises(SearchTooLargeError, match=f"^{re.escape(message)}$"):
            minimal_sufficient_sets(scenario, Event("e", 1))
