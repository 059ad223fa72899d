"""Sufficient sets and direct causes.

A set of actual events is sufficient for an effect when pinning them forces
the effect however the unconstrained background varies.  In reliable mode
every derived variable outside the pins follows its equation and only the
remaining initial variables roam; in general mode every variable outside the
pins roams.

Sufficient sets and direct causes are memoized per scenario and arguments;
each call returns a fresh copy.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from .expr import Const
from .model import (
    Assignment,
    Event,
    Model,
    ModelError,
    Scenario,
    UnknownVariableError,
    enumerate_settings,
    memoized,
    solve,
)
from .normality import plan_abnormality

__all__ = [
    "ActualityError",
    "NoParentsError",
    "direct_cause_graph",
    "direct_cause_parents",
    "direct_cause_sets",
    "is_direct_cause",
    "is_sufficient",
    "minimal_sufficient_sets",
    "restricted_scenario",
]


class ActualityError(ModelError):
    """An operation needed an event at its actual value and got another."""


class NoParentsError(ModelError):
    """Direct causes were requested for an initial variable."""


def _actual_pins(scenario: Scenario, events: Iterable[Event]) -> dict[str, int]:
    """The events as a pin map; each must be at its actual value, so no
    variable can be pinned twice."""
    pins: dict[str, int] = {}
    for ev in events:
        scenario.model.check_value(ev.var, ev.value)
        if scenario.actual_value(ev.var) != ev.value:
            raise ActualityError(
                f"plan pins {ev.render()} but the actual value is "
                f"{scenario.actual_value(ev.var)}"
            )
        pins[ev.var] = ev.value
    return pins


def _falsifying_world(
    scenario: Scenario, pins: dict[str, int], effect: Event
) -> Assignment | None:
    """A solved world in which the pins hold and the effect misses its value,
    or None when the pins force the effect.  Only the roaming ancestors of
    the effect are enumerated: the others cannot change it."""
    model = scenario.model
    roaming = scenario.roaming_vars(frozenset(pins), effect.var) & model.ancestors(
        effect.var
    )
    for background in enumerate_settings(model, roaming):
        world = solve(scenario, {**pins, **background})
        if world[effect.var] != effect.value:
            return world
    return None


def is_sufficient(scenario: Scenario, events: Iterable[Event], effect: Event) -> bool:
    """Does pinning the events force the effect under every roaming
    background?"""
    scenario.model.check_value(effect.var, effect.value)
    pins = _actual_pins(scenario, events)
    if effect.var in pins:
        return pins[effect.var] == effect.value
    return _falsifying_world(scenario, pins, effect) is None


def minimal_sufficient_sets(scenario: Scenario, effect: Event) -> list[frozenset[Event]]:
    """All inclusion-minimal sufficient sets of actual events, ordered by
    size then variable tuple.

    Only ancestors of the effect are candidates.  The effect's value depends
    on its ancestors alone, so adding a non-ancestor to a set never changes
    whether it is sufficient, and a non-ancestor is never in a minimal set.
    """
    return list(memoized(scenario, _minimal_sufficient_sets, effect))


def _minimal_sufficient_sets(scenario: Scenario, effect: Event) -> list[frozenset[Event]]:
    """Candidate sets are bitmasks over the sorted candidates, walked by size
    then variable tuple.  A superset of a sufficient set is skipped.  Each
    falsifying world w met is kept as two masks: D(w), the candidates where
    w differs from the actual world, and B(w), the derived candidates that
    break their equation in w (none in general mode, where every unpinned
    variable roams).  A set S with D(w) & S == 0 and B(w) & ~S == 0 is
    skipped unsolved, being insufficient: pinning S at its actual values and
    setting its roaming ancestors as in w reproduces w on every ancestor, so
    the effect misses its value again.  The empty set roams widest, so it is
    solved first and raises SearchTooLargeError if any set would.
    """
    model = scenario.model
    model.check_value(effect.var, effect.value)
    actual = scenario.actual()
    candidates = sorted(model.ancestors(effect.var))
    bit = {v: 1 << i for i, v in enumerate(candidates)}
    reliable = scenario.mode == "reliable"
    passing: list[int] = []
    refuting: list[tuple[int, int]] = []
    found: list[frozenset[Event]] = []
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            mask = sum(bit[v] for v in combo)
            if any(small & ~mask == 0 for small in passing) or any(
                differs & mask == 0 and broken & ~mask == 0 for differs, broken in refuting
            ):
                continue
            pins = {v: actual[v] for v in combo}
            world = _falsifying_world(scenario, pins, effect)
            if world is None:
                passing.append(mask)
                found.append(frozenset(Event(v, actual[v]) for v in combo))
                continue
            differs = sum(bit[v] for v in candidates if world[v] != actual[v])
            # Only a pin can break its equation, and only a derived one: an
            # initial variable's actual value is its equation's.
            broken = sum(
                bit[v] for v in combo if reliable and model.lookup(v, world) != world[v]
            )
            refuting.append((differs, broken))
    return found


def restricted_scenario(scenario: Scenario, target: str) -> Scenario:
    """The scenario cut down to the target's parents (as constants at their
    actual values) plus the target itself."""
    model = scenario.model
    if target not in model.domains:
        raise UnknownVariableError(f"unknown variable {target!r}")
    parents = model.parents(target)
    keep = [v for v in model.variables if v in parents] + [target]
    equations = {p: Const(scenario.actual_value(p)) for p in parents}
    equations[target] = model.equations[target]
    domains = {v: model.domains[v] for v in keep}
    small = Model(keep, equations, domains)
    defaults = {v: scenario.defaults[v] for v in keep}
    return Scenario(model=small, mode=scenario.mode, defaults=defaults)


def direct_cause_sets(scenario: Scenario, target: Event) -> list[frozenset[Event]]:
    """Minimal robust parent sets of the target that also pass the
    abnormality screen, in canonical order."""
    return list(memoized(scenario, _direct_cause_sets, target))


def _direct_cause_sets(scenario: Scenario, target: Event) -> list[frozenset[Event]]:
    model = scenario.model
    model.check_value(target.var, target.value)
    if model.is_initial(target.var):
        raise NoParentsError(f"{target.var!r} has no parents")
    if scenario.actual_value(target.var) != target.value:
        raise ActualityError(
            f"target {target.render()} is not the actual value "
            f"{scenario.actual_value(target.var)}"
        )
    small = restricted_scenario(scenario, target.var)
    return [
        events
        for events in minimal_sufficient_sets(small, target)
        if plan_abnormality(small, {ev.var for ev in events}, target).passed
    ]


def is_direct_cause(scenario: Scenario, cause: Event, target: Event) -> bool:
    """Membership in some direct-cause set of the target."""
    if scenario.model.is_initial(target.var):
        return False
    return any(cause in group for group in direct_cause_sets(scenario, target))


def direct_cause_parents(scenario: Scenario, var: str) -> frozenset[str]:
    """Incoming direct-cause edges of one variable at the actual world: every
    x in some direct-cause set of var (none when var is initial)."""
    if scenario.model.is_initial(var):
        return frozenset()
    target = Event(var, scenario.actual_value(var))
    return frozenset(ev.var for group in direct_cause_sets(scenario, target) for ev in group)


def direct_cause_graph(scenario: Scenario) -> dict[str, frozenset[str]]:
    """Incoming direct-cause edges for every variable, at the actual world:
    graph[y] is the set of x with an edge x -> y."""
    return {var: direct_cause_parents(scenario, var) for var in scenario.model.variables}
