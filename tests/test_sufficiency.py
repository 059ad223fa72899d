"""Sufficient sets, minimality and direct causes."""

from __future__ import annotations

import dataclasses
import itertools
import random
import re

import pytest

from actualcause import (
    ActualityError,
    Const,
    Event,
    Model,
    NoParentsError,
    Scenario,
    SearchTooLargeError,
    causes_of,
    direct_cause_graph,
    direct_cause_sets,
    hph_causes,
    intentional_causes,
    is_sufficient,
    minimal_sufficient_sets,
    plan_abnormality,
)
from actualcause import parse_case, sufficiency
from actualcause.model import event_set
from actualcause.oracle import (
    oracle_causes_of,
    oracle_direct_cause_sets,
    oracle_is_sufficient,
    oracle_minimal_sufficient_sets,
)
from actualcause.randmodel import random_effect, scenario_stream

from conftest import (
    WIDE_FORMULAS,
    copy_chain,
    corpus_dir,
    counting_calls,
    counting_work,
    grouped_conjunction,
    lattice,
    make_scenario,
    tree,
)


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


def table_searches(calls) -> int:
    """How many of the recorded `_sets` calls searched a value table."""
    return sum(1 for _, _, kernel in calls if kernel is sufficiency._rows)


def restricted_direct_cause_sets(scenario, target) -> list[frozenset[Event]]:
    """Direct causes as the engine once computed them: a scenario cut down to
    the target's parents (constants at their actual values) plus the target,
    whose minimal sufficient sets are screened by its abnormality search."""
    model = scenario.model
    parents = model.parents(target.var)
    keep = [v for v in model.variables if v in parents] + [target.var]
    equations = {p: Const(scenario.actual_value(p)) for p in parents}
    equations[target.var] = model.equations[target.var]
    small = Scenario(
        Model(keep, equations, {v: model.domains[v] for v in keep}),
        mode=scenario.mode,
        defaults={v: scenario.defaults[v] for v in keep},
    )
    return [
        events
        for events in minimal_sufficient_sets(small, target)
        if plan_abnormality(small, {ev.var for ev in events}, target).passed
    ]


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

    def test_the_actual_background_can_falsify_a_non_actual_effect(self):
        # Every other background zeroes a or b and keeps e at 0; only the
        # actual one, a=1 and b=1, makes e=1, so no skip may leave it out.
        scenario = make_scenario("a=1; b=1; e=a & b")
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

    def test_answers_are_memoized_after_the_checks(self, monkeypatch):
        # b=0 is the one table row read, and the repeat reads nothing; a
        # non-actual pin on the same variable still raises.
        work = counting_work(monkeypatch)
        scenario = make_scenario("a=1; b=1; e=a | b")
        assert is_sufficient(scenario, plan_of(Event("a", 1)), Event("e", 1))
        assert len(work) == 1
        assert is_sufficient(scenario, plan_of(Event("a", 1)), Event("e", 1))
        assert len(work) == 1
        with pytest.raises(ActualityError):
            is_sufficient(scenario, plan_of(Event("a", 0)), Event("e", 1))


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


class TestDirectCausesFromTheTable:
    """Direct causes are read from the target's value table; the screen
    passes every minimal set or none, by the parents at their defaults."""

    def test_constant_target(self):
        # The empty set is robust, and it lies inside any set of parents.
        scenario = make_scenario("a=1; e=a | ~a")
        assert direct_cause_sets(scenario, Event("e", 1)) == []
        assert restricted_direct_cause_sets(scenario, Event("e", 1)) == []

    def test_a_minimal_set_at_its_defaults_blocks_every_set(self):
        # {a} is the only minimal set and a=0 sits at its default, so no
        # contrast on it can be as normal as actuality, though b=1 is off
        # its default.  With a's default at 1 the same set passes.
        formulas = "a=0; b=1; e=~a | (a & ~b)"
        target = Event("e", 1)
        at_default = make_scenario(formulas)
        assert var_sets(minimal_sufficient_sets(at_default, target)) == [["a"]]
        assert direct_cause_sets(at_default, target) == []
        assert restricted_direct_cause_sets(at_default, target) == []
        off_default = make_scenario(formulas, defaults={"a": 1})
        assert direct_cause_sets(off_default, target) == [frozenset({Event("a", 0)})]
        assert restricted_direct_cause_sets(off_default, target) == [
            frozenset({Event("a", 0)})
        ]

    def test_an_off_default_parent_with_three_values(self):
        # a=2 is off its default 0, so its contrasts 0 and 1 are pinnable;
        # b=0 at its default is not robust alone, so {a} passes.
        scenario = make_scenario(
            "a=2; b=0; e=(a >= 1) | b", domains={"a": (0, 1, 2)}
        )
        target = Event("e", 1)
        expected = [frozenset({Event("a", 2)})]
        assert direct_cause_sets(scenario, target) == expected
        assert restricted_direct_cause_sets(scenario, target) == expected
        assert oracle_direct_cause_sets(scenario, target) == expected

    @pytest.mark.parametrize("mode", ["reliable", "general"])
    def test_matches_the_oracle_and_the_restricted_model(self, mode):
        # Defaults are re-drawn from each domain (the stream draws 0 only),
        # so a parent can sit off its default at any of its values.  The full
        # parent set is always robust, so every empty answer is one the screen
        # blocked.
        rng = random.Random(f"direct-causes:{mode}")
        targets = passing = 0
        for index, scenario in scenario_stream(seed=7, count=60, max_vars=9, mode=mode):
            defaults = {
                v: rng.choice(scenario.model.domains[v].values)
                for v in scenario.model.variables
            }
            scenario = dataclasses.replace(scenario, defaults=defaults)
            other = dataclasses.replace(
                scenario, mode="general" if mode == "reliable" else "reliable"
            )
            for var in scenario.model.variables:
                if scenario.model.is_initial(var):
                    continue
                target = Event(var, scenario.actual_value(var))
                sets = direct_cause_sets(scenario, target)
                assert sets == oracle_direct_cause_sets(scenario, target), (index, var)
                assert sets == restricted_direct_cause_sets(scenario, target), (index, var)
                assert sets == direct_cause_sets(other, target), (index, var)
                targets += 1
                passing += bool(sets)
        assert (targets, passing) == {"reliable": (214, 75), "general": (214, 86)}[mode]


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

    @pytest.mark.parametrize("mode", ["reliable", "general"])
    def test_non_actual_effects_match_the_oracle(self, mode):
        # The actual background is skipped only while the target's value is
        # actual; for any other value it is a falsifying world.
        for index, scenario in scenario_stream(seed=29, count=60, max_vars=7, mode=mode):
            model, actual = scenario.model, scenario.actual()
            for var in model.variables:
                others = {v: actual[v] for v in model.variables if v != var}
                ancestors = {v: actual[v] for v in model.ancestors(var)}
                for value in model.domains[var].values:
                    if value == actual[var]:
                        continue
                    effect = Event(var, value)
                    for pins in ({}, ancestors, others):
                        expected = oracle_is_sufficient(scenario, pins, effect)
                        assert is_sufficient(scenario, event_set(pins), effect) == expected
                    engine = minimal_sufficient_sets(scenario, effect)
                    assert engine == oracle_minimal_sufficient_sets(scenario, effect), index


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
        # initial read the table (`_sets` over `_rows`) and the rest
        # solve worlds.
        searched = counting_calls(monkeypatch, sufficiency, "_sets")
        queries = 0
        for index, scenario in scenario_stream(seed=4, count=100, max_vars=8, mode=mode):
            for var in scenario.model.variables:
                for value in scenario.model.domains[var].values:
                    effect = Event(var, value)
                    expected = plain_minimal_sufficient_sets(scenario, effect)
                    assert minimal_sufficient_sets(scenario, effect) == expected, (index, effect)
                    queries += 1
        assert queries == 1233
        assert table_searches(searched) == {"reliable": 852, "general": 1233}[mode]

    def test_solve_count_or_of_eleven(self, monkeypatch):
        # A work-count regression gate: a plain walk solves 4 095 worlds
        # here, but stored worlds that each raise one xi refute every set
        # short of all eleven.  Each of the eleven failing sets reads one
        # table row, its all-actual row skipped; the passing set reads none.
        work = counting_work(monkeypatch)
        scenario = make_scenario(
            "; ".join([f"x{i}=0" for i in range(11)])
            + "; e=~(" + " | ".join(f"x{i}" for i in range(11)) + ")"
        )
        sets = minimal_sufficient_sets(scenario, Event("e", 1))
        assert var_sets(sets) == [sorted(f"x{i}" for i in range(11))]
        assert len(work) == 11

    def test_solve_count_over_the_corpus(self, monkeypatch):
        # Fresh scenarios, so no memo entry is shared with other tests; a
        # plain walk solves 1 355 worlds.  World solves plus table rows read.
        work = counting_work(monkeypatch)
        cases = 0
        for path in sorted(corpus_dir().glob("*.case")):
            case = parse_case(path.read_text(encoding="utf-8"))
            minimal_sufficient_sets(case.scenario, case.effect)
            cases += 1
        assert cases == 66
        assert len(work) == 751

    def test_sufficiency_solve_count_for_the_bench_queries(self, monkeypatch):
        # A work-count regression gate on the world solves and table rows the
        # sufficiency checks make for the bench's two queries, on fresh
        # scenarios.
        work = counting_work(monkeypatch)
        cases = 0
        for path in sorted(corpus_dir().glob("*.case")):
            case = parse_case(path.read_text(encoding="utf-8"))
            intentional_causes(case.scenario, case.effect)
            hph_causes(case.scenario, case.effect)
            cases += 1
        assert cases == 66
        assert len(work) == 1229


class TestTransversalSearch:
    """Where sufficiency is monotone, the minimal sufficient sets are the
    minimal transversals of the falsifying worlds' D masks, and the walk
    grows each failing set by its D mask alone."""

    @pytest.mark.parametrize("mode", ["reliable", "general"])
    def test_two_disjunctions(self, mode, monkeypatch):
        # The empty set fails with every variable at 0, adding the D mask
        # {a,b,c,d}, so level 1 is {a}, {b}, {c} and {d}.  Each fails with
        # every other variable at 0, adding {b,c,d}, {a,c,d}, {a,b,d} and
        # {a,b,c}, which grow them to the six pairs.  {a,b} and {c,d} fail,
        # adding {c,d} and {a,b}, and the four pairs below pass, so every
        # set the two failing pairs grow to holds a passing pair.
        work = counting_work(monkeypatch)
        scenario = make_scenario("a=1; b=1; c=1; d=1; e=(a|b)&(c|d)", mode=mode)
        effect = Event("e", 1)
        searched = counting_calls(monkeypatch, sufficiency, "_sets")
        sets = minimal_sufficient_sets(scenario, effect)
        assert var_sets(sets) == [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]]
        assert table_searches(searched) == 1
        # one table row for each of the seven failing sets, and the four
        # rows of each passing pair but its all-actual one
        assert len(work) == 7 + 4 * 3
        assert sets == plain_minimal_sufficient_sets(scenario, effect)

    def test_one_search_answers_both_questions(self, monkeypatch):
        # c's parents are initial, so its minimal sufficient sets are its
        # minimal robust parent sets, and its direct causes screen the same
        # search.  e has a derived parent: its sufficient sets solve worlds.
        searched = counting_calls(monkeypatch, sufficiency, "_sets")
        scenario = make_scenario("a=1; b=1; c=a | b; e=c & a")
        target = Event("c", 1)
        assert var_sets(minimal_sufficient_sets(scenario, target)) == [["a"], ["b"]]
        assert var_sets(direct_cause_sets(scenario, target)) == [["a"], ["b"]]
        assert table_searches(searched) == 1
        assert var_sets(minimal_sufficient_sets(scenario, Event("e", 1))) == [["a"]]
        assert table_searches(searched) == 1

    @pytest.mark.parametrize("mode", ["reliable", "general"])
    def test_effect_that_misses_with_every_ancestor_actual(self, mode):
        # D(w) is empty, so no set is sufficient.
        scenario = make_scenario("a=1; b=1; e=a & b", mode=mode)
        assert minimal_sufficient_sets(scenario, Event("e", 0)) == []

    def test_the_two_kernels_agree(self):
        # A reliable-mode target whose parents are all initial can be asked
        # of its value table or of solved worlds: both give the same sets,
        # and the same verdict on every mask.  Each kernel runs on its own
        # scenario, so neither reads what the other stored.  The world
        # kernel's candidates are all the parents; the table's leave out
        # those with one value, so masks are matched by name.
        def scenarios():
            for path in sorted(corpus_dir().glob("*.case")):
                yield parse_case(path.read_text(encoding="utf-8")).scenario
            for _, scenario in scenario_stream(seed=41, count=300, max_vars=12):
                yield scenario

        rows, worlds = sufficiency._rows, sufficiency._falsifier
        targets = masks = 0
        for scenario in scenarios():
            scenario = dataclasses.replace(scenario, mode="reliable")
            model = scenario.model
            for var in model.variables:
                if model.is_initial(var) or sufficiency._kernel(scenario, var) is not rows:
                    continue
                for value in model.domains[var].values:
                    target = Event(var, value)
                    other = dataclasses.replace(scenario)
                    by_table = sufficiency._sets(scenario, target, rows)
                    assert by_table == sufficiency._sets(other, target, worlds), target
                    candidates, probe = rows(scenario, target)
                    names, falsify = worlds(other, target)
                    for mask in range(1 << len(names)):
                        pinned = {v for i, v in enumerate(names) if mask >> i & 1}
                        row_mask = sum(1 << i for i, v in enumerate(candidates) if v in pinned)
                        passes = probe(row_mask) is None
                        assert passes == (falsify(mask) is None), (target, pinned)
                        masks += 1
                    targets += 1
        assert (targets, masks) == (1593, 3902)


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
        # backgrounds take 20 solves (x0 roams under all but {x0}, and its
        # actual value is skipped).
        tested = []
        falsifier = sufficiency._falsifier

        def counting(*args):
            candidates, falsify = falsifier(*args)
            return candidates, lambda mask: tested.append(mask) or falsify(mask)

        monkeypatch.setattr(sufficiency, "_falsifier", counting)
        solved = counting_calls(monkeypatch, sufficiency, "solve")
        sets = minimal_sufficient_sets(make_scenario(copy_chain(20)), Event("x20", 0))
        assert var_sets(sets) == [[v] for v in sorted(f"x{i}" for i in range(20))]
        assert len(tested) == 21
        assert len(solved) == 20

    def test_a_table_read_never_reaches_the_cap(self):
        # e has 21 parents, but z has one value, so it is in no D(w) and no
        # candidate: the 20 others span the table's 2**20 rows, and their
        # 2**20 masks are within the cap.
        formulas = "; ".join(
            [f"x{i}=0" for i in range(20)]
            + ["z=0", "e=~(" + " | ".join(f"x{i}" for i in range(20)) + " | z)"]
        )
        scenario = make_scenario(formulas, domains={"z": (0,)}, mode="general")
        effect = Event("e", 1)
        xs = sorted(f"x{i}" for i in range(20))
        assert var_sets(minimal_sufficient_sets(scenario, effect)) == [xs]
        # every parent sits at its default, so the screen passes no set
        assert direct_cause_sets(scenario, effect) == []
        assert is_sufficient(scenario, plan_of(*(Event(x, 0) for x in xs)), effect)

    def test_a_wide_background_keeps_its_message(self):
        # The empty set's background is checked before the walk's masks.
        scenario = make_scenario(WIDE_FORMULAS)
        roaming = [f"x{i}" for i in range(22)]
        message = f"assignment space over {roaming} has 4194304 settings, cap 1048576"
        with pytest.raises(SearchTooLargeError, match=f"^{re.escape(message)}$"):
            minimal_sufficient_sets(scenario, Event("e", 1))


class TestStructuredFamilies:
    """Models whose parent sets are a small part of the ancestors.  In
    general mode every unpinned variable roams, so the searches run over the
    target's parents alone; in reliable mode most targets take the walk."""

    @pytest.mark.parametrize("mode", ["reliable", "general"])
    @pytest.mark.parametrize(
        "formulas",
        [tree(2), grouped_conjunction(3, 3), lattice(3, 3)],
        ids=["tree(2^2)", "grouped_conjunction(3, 3)", "lattice 3x3"],
    )
    def test_matches_the_oracle(self, formulas, mode):
        scenario = make_scenario(formulas, mode=mode)
        effect = Event("e", 1)
        assert causes_of(scenario, effect) == oracle_causes_of(scenario, effect)
        for var in scenario.model.variables:
            target = Event(var, scenario.actual_value(var))
            expected = oracle_minimal_sufficient_sets(scenario, target)
            assert minimal_sufficient_sets(scenario, target) == expected, var

    @pytest.mark.parametrize(
        ("formulas", "causes", "work"),
        [(tree(3), ["t6"], 1), (grouped_conjunction(6, 6), ["y0", "y1"], 3)],
        ids=["tree(2^3)", "grouped_conjunction(6, 6)"],
    )
    def test_causes_of_reads_only_the_effects_table(self, formulas, causes, work, monkeypatch):
        # A work-count regression gate, in world solves plus table rows read;
        # a search over every ancestor would make 32 768 and 16 512 world
        # solves.  tree(2^3) reads one row, the one that misses e
        # with t6 free; grouped_conjunction(6, 6) reads the rows that refute
        # {}, {y0} and {y1}, and {y0, y1} has no row left to read.
        counted = counting_work(monkeypatch)
        scenario = make_scenario(formulas, mode="general")
        assert sorted(ev.var for ev in causes_of(scenario, Event("e", 1))) == causes
        assert len(counted) == work

    def test_ancestors_past_the_cap_do_not_count(self):
        # e's 22 initial ancestors have 2**22 settings, past ENUMERATION_CAP,
        # and searching them raised; its 11 parents have 2**11.
        scenario = make_scenario(WIDE_FORMULAS, mode="general")
        sets = minimal_sufficient_sets(scenario, Event("e", 1))
        assert var_sets(sets) == [sorted(f"y{i}" for i in range(11))]
        assert not is_sufficient(scenario, sets[0] - {Event("y0", 0)}, Event("e", 1))
