"""Sufficient sets and direct causes.

A set of actual events is sufficient for an effect when pinning them forces
the effect however the unconstrained background varies.  In reliable mode
every derived variable outside the pins follows its equation and only the
remaining initial variables roam; in general mode every variable outside the
pins roams.

Minimal sufficient sets are found by dualize-and-advance over the minimal
transversals of the falsifying worlds met, when sufficiency is monotone (in
general mode, and in reliable mode when every candidate is an initial
variable); other reliable-mode searches walk the candidate subsets by size
with `model.minimal_passing_sets`, growing only the sets that fail.

Sufficient sets and direct causes are memoized per scenario and arguments;
each call returns a fresh copy.
"""

from __future__ import annotations

from collections.abc import Iterable

from .expr import Const
from .model import (
    ActualityError,
    Assignment,
    Event,
    Model,
    ModelError,
    Scenario,
    UnknownVariableError,
    enumerate_settings,
    event_set,
    memoized,
    minimal_passing_sets,
    solve,
)
from .normality import plan_abnormality

__all__ = [
    "NoParentsError",
    "direct_cause_graph",
    "direct_cause_parents",
    "direct_cause_sets",
    "is_direct_cause",
    "is_sufficient",
    "minimal_sufficient_sets",
    "restricted_scenario",
]


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
    """Candidate sets are bitmasks over the sorted candidates.  Each
    falsifying world w met is kept as D(w), the candidates where w differs
    from the actual world, and, in the walk, B(w), the derived candidates
    that break their equation in w.  A set S with D(w) & S == 0 and
    B(w) & ~S == 0 is insufficient: pinning S at its actual values and
    setting its roaming ancestors as in w reproduces w on every ancestor, so
    the effect misses its value again.

    In general mode every unpinned variable roams, and in reliable mode an
    initial pin cannot break its equation, so when the mode is general or
    every candidate is initial, B(w) is always 0.  Sufficiency is then
    monotone: S is insufficient exactly when it misses D(w) for some
    falsifying world w, and the minimal sufficient sets are the minimal
    transversals of the D family.  These are found by dualize-and-advance
    (`_transversal_search`).  Other reliable-mode candidate sets, where a
    pinned derived candidate can break its equation, keep the walk (`_walk`).

    Both solve the empty set first: it roams widest, so it raises
    SearchTooLargeError if any set would.  The walk then checks its 2**n
    candidate masks against the cap too, though it builds few of them.
    """
    model = scenario.model
    model.check_value(effect.var, effect.value)
    actual = scenario.actual()
    candidates = sorted(model.ancestors(effect.var))
    if scenario.mode != "reliable" or model.initial_variables().issuperset(candidates):
        found = _transversal_search(scenario, effect, candidates, actual)
    else:
        found = _walk(scenario, effect, candidates, actual)
    return [event_set(_pins(candidates, actual, mask)) for mask in found]


def _differs(candidates: list[str], actual: Assignment, world: Assignment) -> int:
    """D(w): the candidates at which the world differs from the actual one."""
    return sum(1 << i for i, v in enumerate(candidates) if world[v] != actual[v])


def _pins(candidates: list[str], actual: Assignment, mask: int) -> dict[str, int]:
    """The candidates in the mask, at their actual values."""
    return {v: actual[v] for i, v in enumerate(candidates) if mask >> i & 1}


def _walk_order(mask: int) -> tuple[int, list[int]]:
    """The walk's order: size, then the tuple of candidate positions."""
    return mask.bit_count(), [i for i in range(mask.bit_length()) if mask >> i & 1]


def _transversal_search(
    scenario: Scenario, effect: Event, candidates: list[str], actual: Assignment
) -> list[int]:
    """Dualize and advance: keep the minimal transversals of the D masks met
    so far and test the untested ones in the walk's order.  A passing
    transversal is a minimal sufficient set, since each of its proper subsets
    misses some D(w).  A falsifying world adds its D(w); the search stops
    when every transversal passes, so every minimal sufficient set, being a
    transversal of the final family that contains some passing one, is one
    of them.  The walk solves exactly the same sets in the same order.  An
    empty D(w) (the effect misses its value with every ancestor actual)
    leaves no transversal, and the answer is []."""
    transversals = [0]  # in the walk's order
    passing: set[int] = set()
    while True:
        mask = next((t for t in transversals if t not in passing), None)
        if mask is None:
            return transversals
        world = _falsifying_world(scenario, _pins(candidates, actual, mask), effect)
        if world is None:
            passing.add(mask)
        else:
            edge = _differs(candidates, actual, world)
            transversals = sorted(_add_edge(transversals, edge), key=_walk_order)


def _add_edge(transversals: list[int], edge: int) -> list[int]:
    """The minimal transversals once `edge` joins the family (Berge): those
    that meet it stay, and each other one grows by one bit of it.  A grown
    set is not minimal exactly when it contains one that stayed; two grown
    sets never contain one another, as neither old set meets the edge."""
    meeting = [t for t in transversals if t & edge]
    grown = []
    for t in transversals:
        if t & edge:
            continue
        rest = edge
        while rest:
            low = rest & -rest
            rest ^= low
            if all(m & ~(t | low) for m in meeting):
                grown.append(t | low)
    return meeting + grown


def _walk(
    scenario: Scenario, effect: Event, candidates: list[str], actual: Assignment
) -> list[int]:
    """The walk (`minimal_passing_sets`); a set a stored world refutes fails unsolved."""
    refuting: list[tuple[int, int]] = []

    def passes(mask: int) -> bool:
        if any(differs & mask == 0 and broken & ~mask == 0 for differs, broken in refuting):
            return False
        world = _falsifying_world(scenario, _pins(candidates, actual, mask), effect)
        if world is None:
            return True
        # Only a pin can break its equation, and only a derived one: an
        # initial variable's actual value is its equation's.
        broken = sum(
            1 << i
            for i, v in enumerate(candidates)
            if mask >> i & 1 and scenario.model.lookup(v, world) != world[v]
        )
        refuting.append((_differs(candidates, actual, world), broken))
        return False

    return minimal_passing_sets(
        len(candidates),
        passes,
        lambda: f"sufficient-set walk for {effect.render()}",
        "candidate sets",
    )


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
