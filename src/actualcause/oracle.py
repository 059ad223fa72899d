"""Definition-unfolding reference implementations.

Everything in this module is deliberately naive: a recursive solver, full
powerset enumeration, no search collapse, no caching across calls.  The test
suites compare these against the engine on small random models.  The code
here intentionally repeats definitions implemented elsewhere; do not
refactor the two into sharing search logic.

`oracle_causes_of(..., continuity="chain-certified")` alone holds the looser
chain reading (each intermediate vertex certified toward the effect);
`scripts/calibrate.py` lists the corpus cases where it differs from the engine.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping

from .expr import substitute
from .model import Event, Model, Scenario

__all__ = [
    "oracle_causes_of",
    "oracle_direct_cause_sets",
    "oracle_hph_vars",
    "oracle_is_sufficient",
    "oracle_minimal_sufficient_sets",
    "oracle_solve",
]


def oracle_solve(scenario: Scenario, pins: Mapping[str, int]) -> dict[str, int]:
    model = scenario.model
    memo: dict[str, int] = {}

    def value(var: str) -> int:
        if var in pins:
            return pins[var]
        if var not in memo:
            expr = model.equations[var]
            env = {p: value(p) for p in expr.variables()}
            memo[var] = expr.evaluate(env)
        return memo[var]

    return {v: value(v) for v in model.variables}


def _settings(model: Model, names: Iterable[str]) -> Iterator[dict[str, int]]:
    ordered = sorted(names)
    pools = [model.domains[v].values for v in ordered]
    for combo in itertools.product(*pools):
        yield dict(zip(ordered, combo))


def oracle_is_sufficient(
    scenario: Scenario,
    pinned: Mapping[str, int],
    effect: Event,
) -> bool:
    model = scenario.model
    if effect.var in pinned:
        return pinned[effect.var] == effect.value
    roam = set(model.variables) - set(pinned) - {effect.var}
    if scenario.mode == "reliable":
        # derived variables follow their equations; in general mode all roam
        roam = {v for v in roam if not model.parents(v)}
    for setting in _settings(model, roam):
        world = oracle_solve(scenario, {**pinned, **setting})
        if world[effect.var] != effect.value:
            return False
    return True


def oracle_minimal_sufficient_sets(
    scenario: Scenario, effect: Event
) -> list[frozenset[Event]]:
    model = scenario.model
    actual = oracle_solve(scenario, {})
    names = sorted(v for v in model.variables if v != effect.var)
    sufficient: list[frozenset[str]] = []
    for size in range(len(names) + 1):
        for combo in itertools.combinations(names, size):
            pins = {v: actual[v] for v in combo}
            if oracle_is_sufficient(scenario, pins, effect):
                sufficient.append(frozenset(combo))
    minimal = [
        group
        for group in sufficient
        if not any(other < group for other in sufficient)
    ]
    minimal.sort(key=lambda group: (len(group), tuple(sorted(group))))
    return [
        frozenset(Event(v, actual[v]) for v in group) for group in minimal
    ]


# ---------------------------------------------------------------------------
# Rank comparison (strict lattice and pin-aware lattice, spelled out)
# ---------------------------------------------------------------------------

# A rank is one of ("top",), ("mid",), ("dev", value, context).


def _compare_ranks(witness: tuple, actual: tuple) -> str:
    order = {"dev": 0, "mid": 1, "top": 2}
    lw, la = order[witness[0]], order[actual[0]]
    if lw == la:
        if witness[0] == "dev":
            return "eq" if witness == actual else "incomp"
        return "eq"
    return "gt" if lw > la else "lt"


def _aggregate(parts: Iterable[str]) -> str:
    gt = lt = False
    for part in parts:
        if part == "incomp":
            return "incomp"
        gt = gt or part == "gt"
        lt = lt or part == "lt"
    if gt and lt:
        return "incomp"
    if gt:
        return "ge"
    if lt:
        return "le"
    return "eq"


def _admissible(verdict: str) -> bool:
    return verdict in ("eq", "ge")


# ---------------------------------------------------------------------------
# Direct causes (Definition 6.1, spelled out)
# ---------------------------------------------------------------------------


def oracle_direct_cause_sets(
    scenario: Scenario, target: Event
) -> list[frozenset[Event]]:
    model = scenario.model
    actual = oracle_solve(scenario, {})
    expr = model.equations[target.var]
    parents = sorted(expr.variables())
    if not parents:
        raise ValueError(f"{target.var!r} has no parents")

    def robust(group: tuple[str, ...]) -> bool:
        pinned = {v: actual[v] for v in group}
        free = [p for p in parents if p not in pinned]
        for setting in _settings(model, free):
            env = {**pinned, **setting}
            if expr.evaluate(env) != target.value:
                return False
        return True

    robust_sets: list[frozenset[str]] = []
    for size in range(len(parents) + 1):
        for combo in itertools.combinations(parents, size):
            if robust(combo):
                robust_sets.append(frozenset(combo))
    minimal = [
        group
        for group in robust_sets
        if not any(other < group for other in robust_sets)
    ]
    minimal.sort(key=lambda group: (len(group), tuple(sorted(group))))

    out: list[frozenset[Event]] = []
    for group in minimal:
        if _direct_abnormality(scenario, group, parents, target):
            out.append(frozenset(Event(v, actual[v]) for v in group))
    return out


def _direct_abnormality(
    scenario: Scenario,
    group: frozenset[str],
    parents: list[str],
    target: Event,
) -> bool:
    """Set-level abnormality inside the restricted parent model: contrast the
    group, roam the other parents, and require the broken world to be no
    less normal than the actual one."""
    model = scenario.model
    actual = oracle_solve(scenario, {})
    expr = model.equations[target.var]
    members = sorted(group)
    others = [p for p in parents if p not in group]
    for contrast in _settings(model, members):
        if all(contrast[v] == actual[v] for v in members):
            continue
        for setting in _settings(model, others):
            env = {**contrast, **setting}
            out = expr.evaluate(env)
            if out == target.value:
                continue
            parts = []
            for parent in parents:
                value = env[parent]
                if value == actual[parent] or value == scenario.defaults[parent]:
                    witness_rank: tuple = ("top",)
                else:
                    witness_rank = ("mid",)
                if actual[parent] == scenario.defaults[parent]:
                    actual_rank: tuple = ("top",)
                else:
                    actual_rank = ("dev", actual[parent], ())
                parts.append(_compare_ranks(witness_rank, actual_rank))
            # the target itself follows its equation on both sides: top/top
            parts.append("eq")
            if _admissible(_aggregate(parts)):
                return True
    return False


# ---------------------------------------------------------------------------
# Actual causes (conditions 1-4, spelled out)
# ---------------------------------------------------------------------------


def _oracle_reduction(
    scenario: Scenario, pins: frozenset[str]
) -> tuple[list[str], dict[str, object], dict[str, int]]:
    """Remove strict ancestors of the pins, substituting actual values."""
    model = scenario.model
    actual = oracle_solve(scenario, {})
    ancestors: set[str] = set()
    frontier = list(pins)
    while frontier:
        var = frontier.pop()
        for parent in model.equations[var].variables():
            if parent not in ancestors:
                ancestors.add(parent)
                frontier.append(parent)
    removed = {v: actual[v] for v in ancestors - pins}
    kept = [v for v in model.variables if v not in removed]
    equations = {v: substitute(model.equations[v], removed) for v in kept}
    return kept, equations, removed


def _oracle_plan_abnormality(
    scenario: Scenario,
    plan: frozenset[str],
    effect: Event,
    single_focus: str | None = None,
) -> tuple[bool, frozenset[str]]:
    """(plan passes, certified members).  Set-level certification is
    flip-or-default; single-event certification is the focus alone."""
    model = scenario.model
    actual = oracle_solve(scenario, {})
    kept, equations, _removed = _oracle_reduction(scenario, plan)
    members = sorted(plan)
    if scenario.mode == "reliable":
        roam = sorted(
            v
            for v in model.variables
            if not model.equations[v].variables()
            and v not in plan
            and v != effect.var
        )
    else:
        roam = sorted(
            v for v in model.variables if v not in plan and v != effect.var
        )

    def rank_free(var: str, world: Mapping[str, int]) -> tuple:
        expr = equations[var]
        names = expr.variables()
        if not names:
            if world[var] == scenario.defaults[var]:
                return ("top",)
            return ("dev", world[var], ())
        env = {p: world[p] for p in sorted(names)}
        if expr.evaluate(env) == world[var]:
            return ("top",)
        return ("dev", world[var], tuple(env[p] for p in sorted(names)))

    actual_ranks = {v: rank_free(v, actual) for v in kept}
    passed = False
    certified: set[str] = set()
    for contrast in _settings(model, members):
        delta = [v for v in members if contrast[v] != actual[v]]
        if not delta:
            continue
        if single_focus is not None and delta != [single_focus]:
            continue
        for setting in _settings(model, roam):
            overrides = {**contrast, **setting}
            world = oracle_solve(scenario, overrides)
            if world[effect.var] == effect.value:
                continue
            parts = []
            for var in kept:
                if var in overrides:
                    value = world[var]
                    if value == actual[var] or value == scenario.defaults[var]:
                        witness_rank: tuple = ("top",)
                    else:
                        witness_rank = ("mid",)
                else:
                    witness_rank = rank_free(var, world)
                parts.append(_compare_ranks(witness_rank, actual_ranks[var]))
            if _admissible(_aggregate(parts)):
                passed = True
                certified.update(delta)
    if single_focus is not None:
        return passed, frozenset({single_focus} if passed else set())
    if passed:
        for var in members:
            if actual[var] == scenario.defaults[var]:
                certified.add(var)
    return passed, frozenset(certified)


def _oracle_dc_graph(scenario: Scenario) -> dict[str, frozenset[str]]:
    model = scenario.model
    actual = oracle_solve(scenario, {})
    graph: dict[str, frozenset[str]] = {}
    for var in model.variables:
        if not model.equations[var].variables():
            graph[var] = frozenset()
            continue
        members: set[str] = set()
        for group in oracle_direct_cause_sets(scenario, Event(var, actual[var])):
            members.update(ev.var for ev in group)
        graph[var] = frozenset(members)
    return graph


def _oracle_member_of_passing_plan(
    scenario: Scenario, cause_var: str, vertex: str
) -> bool:
    """Does the cause belong to some minimal sufficient, abnormality-passing
    plan for the vertex's actual event?"""
    actual = oracle_solve(scenario, {})
    target = Event(vertex, actual[vertex])
    for events in oracle_minimal_sufficient_sets(scenario, target):
        plan = frozenset(ev.var for ev in events)
        if cause_var not in plan:
            continue
        ok, _members = _oracle_plan_abnormality(scenario, plan, target)
        if ok:
            return True
    return False


def oracle_causes_of(
    scenario: Scenario,
    effect: Event,
    variant: str = "3",
    continuity: str = "plan-membership",
) -> frozenset[Event]:
    model = scenario.model
    actual = oracle_solve(scenario, {})
    certified: set[str] = set()
    for events in oracle_minimal_sufficient_sets(scenario, effect):
        plan = frozenset(ev.var for ev in events)
        if variant == "3prime":
            for var in sorted(plan):
                ok, members = _oracle_plan_abnormality(
                    scenario, plan, effect, single_focus=var
                )
                if ok:
                    certified.update(members)
        else:
            _ok, members = _oracle_plan_abnormality(scenario, plan, effect)
            certified.update(members)

    graph = _oracle_dc_graph(scenario)
    successors: dict[str, set[str]] = {v: set() for v in model.variables}
    for child, incoming in graph.items():
        for parent in incoming:
            successors[parent].add(child)
    membership: dict[tuple[str, str], bool] = {}

    def admissible(start: str, vertex: str) -> bool:
        if continuity == "chain-certified":
            return vertex in certified
        key = (start, vertex)
        if key not in membership:
            membership[key] = _oracle_member_of_passing_plan(
                scenario, start, vertex
            )
        return membership[key]

    def chain_exists(start: str) -> bool:
        # some direct-cause path start -> ... -> effect whose intermediate
        # vertices all satisfy the continuity rule
        stack = [start]
        seen = {start}
        while stack:
            here = stack.pop()
            for nxt in successors[here]:
                if nxt == effect.var:
                    return True
                if nxt in seen or not admissible(start, nxt):
                    continue
                seen.add(nxt)
                stack.append(nxt)
        return False

    out: set[Event] = set()
    for var in model.variables:
        if var == effect.var or var not in certified:
            continue
        if chain_exists(var):
            out.add(Event(var, actual[var]))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Contrastive comparator (full search, no collapse)
# ---------------------------------------------------------------------------


def oracle_hph_vars(scenario: Scenario, effect: Event) -> frozenset[str]:
    """Union of minimal contrast sets, by direct definition unfolding.

    Contrast sets range over strict ancestors of the effect, contrast
    vectors differ from the actual values componentwise, freeze sets range
    over every other variable pinned at its actual value, and the broken
    world must rank no lower than the actual one over the kept variables
    (effect excluded) of the per-set reduction.  Pinned variables rank Top
    at their default and Mid elsewhere; unpinned variables rank by the
    reduced equations (constants rank by default)."""
    model = scenario.model
    actual = oracle_solve(scenario, {})
    ancestors: set[str] = set()
    frontier = [effect.var]
    while frontier:
        var = frontier.pop()
        for parent in model.equations[var].variables():
            if parent not in ancestors:
                ancestors.add(parent)
                frontier.append(parent)
    names = sorted(ancestors)

    def admits_witness(contrast_set: frozenset[str]) -> bool:
        members = sorted(contrast_set)
        rest = [
            v
            for v in sorted(model.variables)
            if v not in contrast_set and v != effect.var
        ]
        kept, equations, _removed = _oracle_reduction(scenario, contrast_set)
        compared = [v for v in kept if v != effect.var]

        def rank_free(var: str, world: Mapping[str, int]) -> tuple:
            expr = equations[var]
            parents = sorted(expr.variables())
            if not parents:
                if world[var] == scenario.defaults[var]:
                    return ("top",)
                return ("dev", world[var], ())
            env = {p: world[p] for p in parents}
            if expr.evaluate(env) == world[var]:
                return ("top",)
            return ("dev", world[var], tuple(env[p] for p in parents))

        actual_ranks = {v: rank_free(v, actual) for v in compared}
        for contrast in _settings(model, members):
            if any(contrast[v] == actual[v] for v in members):
                continue
            for freeze_size in range(len(rest) + 1):
                for frozen in itertools.combinations(rest, freeze_size):
                    overrides = dict(contrast)
                    overrides.update({v: actual[v] for v in frozen})
                    world = oracle_solve(scenario, overrides)
                    if world[effect.var] == effect.value:
                        continue
                    parts = []
                    for var in compared:
                        if var in overrides:
                            if world[var] == scenario.defaults[var]:
                                witness_rank: tuple = ("top",)
                            else:
                                witness_rank = ("mid",)
                        else:
                            witness_rank = rank_free(var, world)
                        parts.append(
                            _compare_ranks(witness_rank, actual_ranks[var])
                        )
                    if _admissible(_aggregate(parts)):
                        return True
        return False

    admitting: list[frozenset[str]] = []
    for size in range(1, len(names) + 1):
        for combo in itertools.combinations(names, size):
            group = frozenset(combo)
            if any(other < group for other in admitting):
                continue
            if admits_witness(group):
                admitting.append(group)
    minimal = [
        group
        for group in admitting
        if not any(other < group for other in admitting)
    ]
    out: set[str] = set()
    for group in minimal:
        out.update(group)
    return frozenset(out)
