"""Model validation, domains, events, plans, scenarios, and solving."""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actualcause import (
    Binary,
    Const,
    CycleError,
    Domain,
    DomainError,
    ENUMERATION_CAP,
    EvaluationError,
    Event,
    Model,
    ModelError,
    NonExhaustivePiecewiseError,
    UnknownVariableError,
    Var,
    enumerate_settings,
    event_set,
    render_events,
    solve,
)
from actualcause.model import BINARY, Scenario, minimal_passing_sets
from actualcause.model import solve as kernel_solve
from actualcause.oracle import oracle_solve
from actualcause.randmodel import scenario_stream
from conftest import (
    BINARY_POOLS,
    BIT_NAMES,
    BIT_OPS,
    EXPRESSIONS,
    NESTED_BIT_EXPRESSIONS,
    POOLS,
    WIDE_FORMULAS,
    make_scenario,
)


class TestDomain:
    def test_membership_and_iteration(self):
        dom = Domain((0, 2, 5))
        assert 2 in dom and 1 not in dom
        assert list(dom) == [0, 2, 5]
        assert len(dom) == 3

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            Domain((0, 1, 1))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            Domain(())

    def test_positions_are_built_once(self):
        dom = Domain((0, 2, 5))
        assert dom.positions == {0: 0, 2: 1, 5: 2}
        assert dom.positions is dom.positions
        assert dom == Domain((0, 2, 5))

    def test_models_read_their_domains_maps(self):
        # every binary variable shares BINARY's one map
        model = make_scenario("a=1; b=a; e=a | b", domains={"b": (0, 1, 2)}).model
        maps = {parent: index for slots, _ in model._plan.values() for parent, index, _ in slots}
        assert maps["a"] is BINARY.positions
        assert maps["b"] is model.domains["b"].positions


class TestEvent:
    def test_render_and_ordering(self):
        assert Event("a", 1).render() == "a=1"
        assert Event("a", 0) < Event("a", 1) < Event("b", 0)

    def test_event_set_and_render_events(self):
        events = event_set({"b": 2, "a": 1})
        assert events == frozenset({Event("a", 1), Event("b", 2)})
        assert render_events(events) == "{a=1, b=2}"
        assert render_events(()) == "{}"


class TestModelValidation:
    def test_missing_domains_default_to_binary(self):
        scenario = make_scenario("a=1; e=a")
        assert scenario.model.domains["a"].values == (0, 1)

    def test_unknown_reference(self):
        with pytest.raises(UnknownVariableError):
            make_scenario("a=1; e=a & z")

    def test_duplicate_variable_names(self):
        with pytest.raises(ModelError, match="duplicate variable names"):
            Model(("a", "a"), {"a": Const(1)})

    def test_equations_must_match_the_variables(self):
        with pytest.raises(ModelError, match=r"missing \['b'\], extra \['z'\]"):
            Model(("a", "b"), {"a": Const(1), "z": Const(0)})

    def test_domain_for_unknown_variable(self):
        with pytest.raises(UnknownVariableError, match=r"unknown variable\(s\): \['z'\]"):
            Model(("a",), {"a": Const(1)}, {"z": BINARY})

    def test_cycle(self):
        with pytest.raises(CycleError):
            make_scenario("a=e; e=a")

    def test_self_loop(self):
        with pytest.raises(CycleError):
            make_scenario("a=a")

    def test_equation_escapes_domain(self):
        # a + b can reach 2, outside e's binary domain.
        with pytest.raises(DomainError):
            make_scenario("a=1; b=1; e=a + b")

    def test_constant_outside_domain(self):
        with pytest.raises(DomainError):
            make_scenario("a=2; e=a")

    def test_non_exhaustive_piecewise(self):
        with pytest.raises(NonExhaustivePiecewiseError):
            make_scenario("a=1; e={1 if a}")

    def test_structure_queries(self):
        scenario = make_scenario("a=1; b=a; c=1; e=b & c")
        model = scenario.model
        assert model.initial_variables() == frozenset({"a", "c"})
        assert model.is_initial("a") and not model.is_initial("b")
        assert model.parents("e") == ("b", "c")
        slots, _ = model.table("e")
        assert tuple(parent for parent, _, _ in slots) == model.parents("e")
        assert model.ancestors("e") == frozenset({"a", "b", "c"})
        assert model.ancestors("e") is model.ancestors("e")  # kept once computed
        assert model.ancestors("a") == frozenset()
        assert model.ancestors("b") | model.ancestors("e") == frozenset({"a", "b", "c"})
        for _ in range(2):
            with pytest.raises(UnknownVariableError):
                model.ancestors("z")

    def test_value_semantics(self):
        first = make_scenario("a=1; e=a").model
        second = make_scenario("a=1; e=a").model
        assert first == second

    def test_lookup_reads_the_value_table(self):
        scenario = make_scenario(
            "a=0; b=2; e={a + b if a < 2, 0 if 1}",
            domains={"a": (0, 1, 2), "b": (0, 2), "e": (0, 1, 2, 3)},
        )
        model = scenario.model
        for a in (0, 1, 2):
            for b in (0, 2):
                env = {"a": a, "b": b}
                assert model.lookup("e", env) == model.equations["e"].evaluate(env)
        assert model.lookup("a", {}) == 0

    def test_value_table_size_is_capped(self):
        from actualcause import SearchTooLargeError

        names = [f"x{i}" for i in range(21)]
        formulas = "; ".join(f"{name}=0" for name in names)
        with pytest.raises(SearchTooLargeError):
            make_scenario(f"{formulas}; e={' | '.join(names)}")

    def test_value_table_size_is_checked_before_compiling(self, monkeypatch):
        from actualcause import SearchTooLargeError

        def compile_nothing(*args):
            raise AssertionError("value_table called")

        monkeypatch.setattr("actualcause.model.value_table", compile_nothing)
        names = [f"x{i}" for i in range(21)]
        formulas = "; ".join(f"{name}=0" for name in names)
        with pytest.raises(
            SearchTooLargeError,
            match=r"^equation for 'e' has 2097152 parent settings, cap 1048576$",
        ):
            make_scenario(f"{formulas}; e={' | '.join(names)}")

    def test_or_of_20_compiles_bit_parallel(self):
        # 2**20 parent settings, at the cap: the table is read back at the
        # all-zero setting, each one-hot setting and the all-ones setting
        names = [f"x{i}" for i in range(20)]
        formulas = "; ".join(f"{name}=0" for name in names)
        model = make_scenario(f"{formulas}; e=~({' | '.join(names)})").model
        settings = [dict.fromkeys(names, 0), dict.fromkeys(names, 1)]
        settings += [{name: int(name == hot) for name in names} for hot in names]
        for env in settings:
            assert model.lookup("e", env) == model.equations["e"].evaluate(env)

    @pytest.mark.parametrize(
        ("formula", "at"),
        [
            ("a | b", "{'a': 0, 'b': 0}"),  # 4 settings: the bit path
            ("a | b | c", "{'a': 0, 'b': 0, 'c': 0}"),  # 8: the bit path
        ],
    )
    def test_zero_one_table_outside_the_domain(self, formula, at):
        message = f"equation for 'e' yields 0 outside domain (1, 2) at {at}"
        with pytest.raises(DomainError) as caught:
            make_scenario(f"a=1; b=1; c=1; e={formula}", domains={"e": (1, 2)})
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        ("formula", "domain", "error", "message"),
        [
            # the row path, table [0, -1, None, None]: out of domain first
            (
                "b / (a - 1)",
                (0, 1),
                DomainError,
                "equation for 'e' yields -1 outside domain (0, 1) at {'a': 0, 'b': 1}",
            ),
            # the row path, table [1, None, 3, None]: a failed evaluation first
            (
                "a * 2 + 1 / (1 - b)",
                (0, 1),
                ModelError,
                "equation for 'e' fails at {'a': 0, 'b': 1}: division by zero in '1 / (1 - b)'",
            ),
            # the bit path, table [1, 0, 0, 1]
            (
                "a == b",
                (1, 2),
                DomainError,
                "equation for 'e' yields 0 outside domain (1, 2) at {'a': 0, 'b': 1}",
            ),
            # the bit path, table [0, 1, 1, 1]
            (
                "a | b",
                (0,),
                DomainError,
                "equation for 'e' yields 1 outside domain (0,) at {'a': 0, 'b': 1}",
            ),
            # the bit path, table [0, 0, 0, 1]: only the last setting leaves
            (
                "a & b",
                (0, 2),
                DomainError,
                "equation for 'e' yields 1 outside domain (0, 2) at {'a': 1, 'b': 1}",
            ),
            # the bit path, tables of ones only and of zeros only
            (
                "a | ~a",
                (0, 2),
                DomainError,
                "equation for 'e' yields 1 outside domain (0, 2) at {'a': 0}",
            ),
            (
                "a & ~a",
                (1, 2),
                DomainError,
                "equation for 'e' yields 0 outside domain (1, 2) at {'a': 0}",
            ),
        ],
    )
    def test_the_first_failing_setting_is_reported(self, formula, domain, error, message):
        with pytest.raises(ModelError) as caught:
            make_scenario(f"a=1; b=1; e={formula}", domains={"e": domain})
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_check_value(self):
        model = make_scenario("a=1; e=a", domains={"a": (0, 1, 2), "e": (0, 1, 2)}).model
        model.check_value("a", 2)
        with pytest.raises(DomainError):
            model.check_value("a", 3)
        with pytest.raises(UnknownVariableError):
            model.check_value("z", 0)


def parent_closure(model, var):
    """The least set that holds the parents of `var` and every parent of
    its members: the transitive closure of `parents`, grown level by level."""
    closure = set(model.parents(var))
    while True:
        grown = closure.union(*map(model.parents, closure))
        if grown == closure:
            return closure
        closure = grown


def test_ancestors_are_the_closure_of_parents(corpus_cases):
    models = [case.scenario.model for case in corpus_cases.values()]
    models += [scenario.model for _, scenario in scenario_stream(0, 200, max_vars=12)]
    assert len(models) == 66 + 200
    for model in models:
        for var in model.variables:
            assert model.ancestors(var) == parent_closure(model, var), var
        with pytest.raises(UnknownVariableError):
            model.ancestors("no-such-variable")


def rowwise_compile(var, expr, domains):
    """The value table of one equation compiled one parent setting at a
    time, raising as `Model` does."""
    parents = tuple(sorted(expr.variables()))
    table = []
    for combo in itertools.product(*(domains[p].values for p in parents)):
        env = dict(zip(parents, combo))
        try:
            value = expr.evaluate(env)
        except EvaluationError as err:
            if "no true guard" in str(err):
                raise NonExhaustivePiecewiseError(
                    f"equation for {var!r} has no true guard at {env}"
                ) from err
            raise ModelError(f"equation for {var!r} fails at {env}: {err}") from err
        if value not in domains[var]:
            raise DomainError(
                f"equation for {var!r} yields {value} outside domain "
                f"{domains[var].values} at {env}"
            )
        table.append(value)
    return table


def table_or_error(build):
    try:
        return build()
    except ModelError as err:
        return type(err), str(err)


def assert_compiles_rowwise(names, expr, pools, effect_pool, effect):
    """`Model` builds the table of `effect = expr`, the other names constant,
    as `rowwise_compile` does, or raises the same exception class and
    message."""
    domains = {name: Domain(tuple(pool)) for name, pool in zip(names, pools)}
    domains[effect] = Domain(tuple(effect_pool))
    equations = {name: Const(domains[name].values[0]) for name in names}
    equations[effect] = expr

    def compiled():
        model = Model([*names, effect], equations, domains)
        parents = model.parents(effect)
        combos = itertools.product(*(domains[p].values for p in parents))
        return [model.lookup(effect, dict(zip(parents, combo))) for combo in combos]

    expected = table_or_error(lambda: rowwise_compile(effect, expr, domains))
    assert table_or_error(compiled) == expected


@settings(max_examples=400, deadline=None)
@given(
    EXPRESSIONS,
    st.lists(POOLS, min_size=4, max_size=4),
    st.lists(st.integers(-3, 4), min_size=1, max_size=8, unique=True),
)
def test_tables_match_a_rowwise_compile(expr, pools, effect_pool):
    assert_compiles_rowwise(["a", "b", "c", "d"], expr, pools, effect_pool, "e")


def join_names(tree, ops):
    """`tree`, joined by each operator of `ops` that is not None to the name
    of a to e in the same place, so that it reads enough names for the bit
    path."""
    for op, name in zip(ops, BIT_NAMES):
        if op is not None:
            tree = Binary(op, tree, Var(name))
    return tree


@settings(max_examples=300, deadline=None)
@given(
    st.builds(
        join_names,
        NESTED_BIT_EXPRESSIONS,
        st.lists(st.sampled_from((None, *BIT_OPS)), min_size=5, max_size=5),
    ),
    st.lists(BINARY_POOLS, min_size=5, max_size=5),
    st.lists(st.integers(-1, 2), min_size=1, max_size=4, unique=True),
)
def test_zero_one_tables_match_a_rowwise_compile(expr, pools, effect_pool):
    # trees that take the bit path, or, nested, the row path; effect
    # domains with and without 0 and 1
    assert_compiles_rowwise(list(BIT_NAMES), expr, pools, effect_pool, "z")


class TestScenario:
    def test_bad_mode(self):
        with pytest.raises(ModelError):
            make_scenario("a=1; e=a", mode="bogus")

    def test_defaults_fill_to_zero(self):
        scenario = make_scenario("a=1; e=a", defaults={"a": 1})
        assert scenario.defaults["a"] == 1
        assert scenario.defaults["e"] == 0

    def test_default_out_of_domain(self):
        with pytest.raises(DomainError):
            make_scenario("a=1; e=a", defaults={"a": 5})

    def test_default_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            make_scenario("a=1; e=a", defaults={"z": 0})

    def test_intention_must_be_parent(self):
        make_scenario("f=1; a=f; e=a", intentions=(("f", "a"),))
        with pytest.raises(ModelError):
            make_scenario("f=1; a=f; e=a", intentions=(("f", "e"),))

    def test_intention_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            make_scenario("f=1; a=f; e=a", intentions=(("z", "a"),))

    def test_actual_values(self):
        scenario = make_scenario("a=1; b=a; e=~b")
        assert scenario.actual() == {"a": 1, "b": 1, "e": 0}
        assert scenario.actual_value("e") == 0
        with pytest.raises(UnknownVariableError):
            scenario.actual_value("z")


class TestSolve:
    def test_plain_solve(self):
        scenario = make_scenario("a=1; b=a; e=a & b")
        assert solve(scenario) == {"a": 1, "b": 1, "e": 1}

    def test_pinned_solve(self):
        scenario = make_scenario("a=1; b=a; e=a & b")
        assert solve(scenario, {"b": 0}) == {"a": 1, "b": 0, "e": 0}

    def test_overrides_mapping_and_events(self):
        scenario = make_scenario("a=1; b=a; e=a & b")
        assert solve(scenario, {"a": 0}) == {"a": 0, "b": 0, "e": 0}
        pins = {event.var: event.value for event in [Event("a", 0)]}
        assert solve(scenario, pins)["e"] == 0

    def test_pin_out_of_domain(self):
        scenario = make_scenario("a=1; b=a; e=a & b")
        with pytest.raises(DomainError):
            solve(scenario, {"b": 7})
        with pytest.raises(UnknownVariableError):
            solve(scenario, {"z": 0})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.randoms(use_true_random=False))
def test_solve_matches_a_reference(seed, rng):
    # each stream model as declared (in topological order) and declared
    # backwards, under random in-domain pins, against the oracle's solver,
    # which evaluates each equation by `Expr.evaluate`
    for _, scenario in scenario_stream(seed, 4, max_vars=8):
        model = scenario.model
        backwards = Model(model.variables[::-1], model.equations, model.domains)
        for built in (model, backwards):
            chosen = rng.sample(built.variables, rng.randint(0, len(built.variables)))
            pins = {v: rng.choice(built.domains[v].values) for v in chosen}
            solved = kernel_solve(Scenario(built), pins)
            assert solved == oracle_solve(Scenario(built), pins)
            assert list(solved) == list(built.variables)


class TestSolveOutOfOrder:
    """A model declared out of topological order solves in its own
    declaration order."""

    def test_unpinned(self):
        scenario = make_scenario("e=a & b; b=a; a=1")
        solved = kernel_solve(scenario)
        assert solved == {"e": 1, "b": 1, "a": 1}
        assert list(solved) == ["e", "b", "a"]

    def test_pinned(self):
        scenario = make_scenario("e=a & b; b=a; a=1")
        solved = kernel_solve(scenario, {"b": 0})
        assert solved == {"e": 0, "b": 0, "a": 1}
        assert list(solved) == ["e", "b", "a"]
        assert solved == oracle_solve(scenario, {"b": 0})


class TestEnumerateSettings:
    def test_grid(self):
        model = make_scenario("a=1; b=0; e=a & b", domains={"a": (0, 1, 2)}).model
        grid = list(enumerate_settings(model, ["a", "b"]))
        assert len(grid) == 6
        assert {"a": 0, "b": 0} in grid and {"a": 2, "b": 1} in grid

    def test_cap(self):
        from actualcause import SearchTooLargeError

        model = make_scenario(WIDE_FORMULAS).model
        initial = sorted(model.initial_variables())
        assert 2 ** len(initial) > ENUMERATION_CAP
        settings = enumerate_settings(model, initial)
        declared = [f"x{i}" for i in range(22)]
        message = f"assignment space over {declared} has 4194304 settings, cap 1048576"
        with pytest.raises(SearchTooLargeError, match=f"^{re.escape(message)}$"):
            next(settings)
        # a space of exactly ENUMERATION_CAP settings is still enumerated
        assert 2**20 == ENUMERATION_CAP
        assert next(enumerate_settings(model, initial[:20])) == dict.fromkeys(initial[:20], 0)


def combinations_walk(n, passes):
    """Every mask by size, then positions, with supersets of passing masks
    skipped: what `minimal_passing_sets` must test, in its order."""
    found = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            mask = sum(1 << i for i in combo)
            if all(small & ~mask for small in found) and passes(mask):
                found.append(mask)
    return found


def recorded(test):
    calls = []

    def recording(mask):
        calls.append(mask)
        return test(mask)

    return recording, calls


def above_highest(n, passes):
    """A test that grows a failing mask by every position above its highest:
    every prefix of a minimal passing mask fails, so this reaches all of
    them, whatever the family."""
    return lambda mask: None if passes(mask) else (1 << n) - (1 << mask.bit_length())


def outside_a_maximal_failing_superset(n, passes, order):
    """A test for a superset-closed family: a failing mask grows by the
    positions outside a maximal failing superset of it, found by adding the
    positions in `order` that keep it failing.  A passing superset of the
    mask is no subset of that failing one, so it holds one of them."""

    def test(mask):
        if passes(mask):
            return None
        for i in order:
            if not passes(mask | 1 << i):
                mask |= 1 << i
        return (1 << n) - 1 & ~mask

    return test


FAMILIES = st.integers(0, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1), max_size=12))
)


def walk_order(mask):
    # by size, then ascending mask within a level
    return mask.bit_count(), mask


class TestMinimalPassingSets:
    @settings(max_examples=300, deadline=None)
    @given(FAMILIES, st.booleans())
    def test_tests_what_a_combinations_walk_tests(self, family, closed):
        # growing above the highest position tests the same masks as the
        # combinations walk, each level in ascending mask order
        n, members = family
        if closed:
            # superset-closed: a mask passes when it contains a member
            def passes(mask):
                return any(m & ~mask == 0 for m in members)
        else:
            def passes(mask):
                return mask in members

        helper, helper_calls = recorded(above_highest(n, passes))
        plain, plain_calls = recorded(passes)
        found = minimal_passing_sets(n, helper, lambda: "test walk", "masks")
        assert found == combinations_walk(n, plain)
        assert helper_calls == sorted(plain_calls, key=walk_order)

    @settings(max_examples=300, deadline=None)
    @given(FAMILIES, st.booleans())
    def test_growing_by_what_a_passing_superset_must_hold(self, family, reverse):
        # for a superset-closed family, growing a failing mask only by the
        # positions outside a maximal failing superset finds the same masks
        # and tests none that the combinations walk does not
        n, members = family

        def passes(mask):
            return any(m & ~mask == 0 for m in members)

        order = range(n)[::-1] if reverse else range(n)
        helper, helper_calls = recorded(outside_a_maximal_failing_superset(n, passes, order))
        plain, plain_calls = recorded(passes)
        found = minimal_passing_sets(n, helper, lambda: "test walk", "masks")
        assert found == combinations_walk(n, plain)
        assert set(helper_calls) <= set(plain_calls)
        assert helper_calls == sorted(helper_calls, key=walk_order)

    def test_every_level_is_sorted_by_positions(self):
        # each level of every n <= 10 passes whole, so the result is all of
        # its masks, which must come in the order of their position lists
        for n in range(11):
            for size in range(n + 1):
                test = above_highest(n, lambda mask: mask.bit_count() == size)
                found = minimal_passing_sets(n, test, lambda: "test walk", "masks")
                level = [mask for mask in range(1 << n) if mask.bit_count() == size]
                assert found == sorted(
                    level,
                    key=lambda mask: (mask.bit_count(), [i for i in range(n) if mask >> i & 1]),
                )

    def test_singletons_pass_after_n_plus_one_tests(self):
        # at the real cap: 2**20 masks, of which only 21 are built
        test, calls = recorded(above_highest(20, lambda mask: mask.bit_count() == 1))
        found = minimal_passing_sets(20, test, lambda: "test walk", "masks")
        assert found == [1 << i for i in range(20)]
        assert len(calls) == 21

    def test_the_empty_mask_is_tested_before_the_cap(self, monkeypatch):
        from actualcause import SearchTooLargeError

        monkeypatch.setattr("actualcause.model.ENUMERATION_CAP", 1 << 3)
        test, calls = recorded(above_highest(4, lambda mask: False))
        with pytest.raises(SearchTooLargeError, match=r"^test walk has 16 masks, cap 8$"):
            minimal_passing_sets(4, test, lambda: "test walk", "masks")
        assert calls == [0]
