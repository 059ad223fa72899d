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
with `model.minimal_passing_sets`, growing only the sets that fail.  Direct
causes are read from the target's own value table (`direct_cause_sets`).
Every one of these questions is put to one falsifier per target
(`_falsifier`), which answers `falsify(mask)` for a mask of candidates.

Sufficient sets, direct causes and `is_sufficient` answers are memoized per
scenario and arguments; each call returns a fresh copy.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Container, Iterable

from .model import (
    Assignment,
    Event,
    ModelError,
    Scenario,
    check_search_size,
    event_set,
    memoized,
    minimal_passing_sets,
    solve,
)
# not called here; perfbench's test_tracer_wraps_names_in_every_importing_module reads it
from .normality import plan_abnormality  # noqa: F401

# `falsify(mask)`: a world that keeps the masked candidates actual and misses the target, or None
Falsify = Callable[[int], Assignment | None]

__all__ = [
    "NoParentsError",
    "direct_cause_graph",
    "direct_cause_parents",
    "direct_cause_sets",
    "is_sufficient",
    "minimal_sufficient_sets",
]


class NoParentsError(ModelError):
    """Direct causes were requested for an initial variable."""


def _falsifier(
    scenario: Scenario, target: Event, candidates: list[str], roams: Container[str], steps: tuple
) -> Falsify:
    """`falsify` for one target, set up once: it pins the masked candidates
    at their actual values, tries the other candidates in `roams` in the
    order of `enumerate_settings` and solves only `steps`, the target's
    cone.  While the target's value is actual, the background that keeps
    every roaming candidate actual reproduces the actual world on the cone,
    so it is skipped unsolved."""
    actual = scenario.actual()
    position = {v: i for i, v in enumerate(candidates)}
    roaming = [
        (position[v], v, scenario.model.domains[v].values)
        for v in scenario.model.variables
        if v in position and v in roams
    ]
    skips = actual[target.var] == target.value

    def falsify(mask: int) -> Assignment | None:
        pins = _pins(candidates, actual, mask)
        names = [v for i, v, _ in roaming if not mask >> i & 1]
        pools = [values for i, _, values in roaming if not mask >> i & 1]
        check_search_size(
            math.prod(map(len, pools)), lambda: f"assignment space over {names}", "settings"
        )
        skip = tuple([actual[v] for v in names]) if skips else None
        for background in itertools.product(*pools):
            if background != skip:
                pins.update(zip(names, background))
                world = solve(scenario, pins, steps)
                if world[target.var] != target.value:
                    return world
        return None

    return falsify


def _effect_falsifier(scenario: Scenario, effect: Event) -> tuple[list[str], Falsify]:
    """The effect's sorted ancestors and their falsifier (`Scenario.roaming_vars`)."""
    candidates = sorted(scenario.model.ancestors(effect.var))
    roams = scenario.roaming_vars(frozenset(), effect.var)
    return candidates, _falsifier(
        scenario, effect, candidates, roams, scenario.model.cone(effect.var)
    )


def is_sufficient(scenario: Scenario, events: Iterable[Event], effect: Event) -> bool:
    """Does pinning the events force the effect under every roaming
    background?  Each event must be actual, so no variable is pinned twice.
    Once they are checked, the answer is memoized per scenario on the pinned
    variables and the effect."""
    scenario.model.check_value(effect.var, effect.value)
    pinned: set[str] = set()
    for ev in events:
        scenario.check_actual(ev, "plan pin")
        pinned.add(ev.var)
    if effect.var in pinned:
        return scenario.actual_value(effect.var) == effect.value
    return memoized(scenario, _is_sufficient, frozenset(pinned), effect)


def _is_sufficient(scenario: Scenario, pinned: frozenset[str], effect: Event) -> bool:
    candidates, falsify = memoized(scenario, _effect_falsifier, effect)
    return falsify(sum(1 << i for i, v in enumerate(candidates) if v in pinned)) is None


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
    candidates, falsify = _effect_falsifier(scenario, effect)
    if scenario.mode != "reliable" or model.initial_variables().issuperset(candidates):
        found = _transversal_search(falsify, candidates, actual)
    else:
        found = _walk(scenario, effect, candidates, actual, falsify)
    return [event_set(_pins(candidates, actual, mask)) for mask in found]


def _differs(candidates: list[str], actual: Assignment, world: Assignment) -> int:
    """D(w): the candidates at which the world differs from the actual one."""
    return sum(1 << i for i, v in enumerate(candidates) if world[v] != actual[v])


def _pins(candidates: list[str], actual: Assignment, mask: int) -> dict[str, int]:
    """The candidates in the mask, at their actual values."""
    return {v: actual[v] for i, v in enumerate(candidates) if mask >> i & 1}


class _WalkKeys(dict):
    """The walk's order over n positions, size then the tuple of positions,
    as one int per mask, computed once: the size above the complement of the
    n-bit reversal, where a lower first differing position sets a higher
    reversed bit."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __missing__(self, mask: int) -> int:
        n = self.n
        key = self[mask] = mask.bit_count() << n | (1 << n) - 1 ^ int(f"{mask:0{n}b}"[::-1], 2)
        return key


def _transversal_search(falsify: Falsify, candidates: list[str], actual: Assignment) -> list[int]:
    """Dualize and advance: keep the minimal transversals of the D masks met
    so far and test the untested ones in the walk's order.  A passing
    transversal is a minimal sufficient set, since each of its proper subsets
    misses some D(w).  A falsifying world adds its D(w); the search stops
    when every transversal passes, so every minimal sufficient set, being a
    transversal of the final family that contains some passing one, is one
    of them.  The walk solves exactly the same sets in the same order.  An
    empty D(w) (the effect misses its value with every candidate actual)
    leaves no transversal, and the answer is []."""
    transversals = [0]  # in the walk's order
    passing: set[int] = set()
    keys = _WalkKeys(len(candidates))
    while True:
        mask = next((t for t in transversals if t not in passing), None)
        if mask is None:
            return transversals
        world = falsify(mask)
        if world is None:
            passing.add(mask)
        else:
            edge = _differs(candidates, actual, world)
            transversals = sorted(_add_edge(transversals, edge), key=keys.__getitem__)


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
    scenario: Scenario, effect: Event, candidates: list[str], actual: Assignment, falsify: Falsify
) -> list[int]:
    """The walk (`minimal_passing_sets`); a set a stored world refutes fails unsolved."""
    refuting: list[tuple[int, int]] = []

    def passes(mask: int) -> bool:
        if any(differs & mask == 0 and broken & ~mask == 0 for differs, broken in refuting):
            return False
        world = falsify(mask)
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


def direct_cause_sets(scenario: Scenario, target: Event) -> list[frozenset[Event]]:
    """Minimal robust parent sets of the target that pass the abnormality
    screen, in canonical order.  A parent set is robust when every row of the
    target's value table that keeps it at its actual values gives the
    target's value; no model is built.

    The screen wants a world that moves some members and misses the target
    no less normally than actuality.  Such a world pins every parent, so only
    the target is ranked, and it obeys its equation.  A parent at its default
    ranks lower pinned anywhere else, any other parent no lower anywhere, and
    any world that misses the target moves a member of a robust set.  So a
    set passes exactly when the parents at their defaults are not robust:
    every minimal set passes, or, if one lies inside those parents, none does."""
    return list(memoized(scenario, _direct_cause_sets, target))


def _direct_cause_sets(scenario: Scenario, target: Event) -> list[frozenset[Event]]:
    model = scenario.model
    scenario.check_actual(target, "target")
    if model.is_initial(target.var):
        raise NoParentsError(f"{target.var!r} has no parents")
    actual = scenario.actual()
    parents = list(model.parent_tuple(target.var))
    falsify = _falsifier(scenario, target, parents, parents, model.cone(target.var)[-1:])
    found = _transversal_search(falsify, parents, actual)
    off_default = _differs(parents, actual, scenario.defaults)
    if any(not mask & off_default for mask in found):
        return []
    return [event_set(_pins(parents, actual, mask)) for mask in found]


def direct_cause_parents(scenario: Scenario, var: str) -> frozenset[str]:
    """Incoming direct-cause edges of one variable at the actual world: every
    x in some direct-cause set of var (none when var is initial)."""
    if scenario.model.is_initial(var):
        return frozenset()
    target = Event(var, scenario.actual_value(var))
    return frozenset(ev.var for group in direct_cause_sets(scenario, target) for ev in group)


# no engine caller: perfbench's tracer wraps it by name
def direct_cause_graph(scenario: Scenario) -> dict[str, frozenset[str]]:
    """Incoming direct-cause edges for every variable, at the actual world:
    graph[y] is the set of x with an edge x -> y."""
    return {var: direct_cause_parents(scenario, var) for var in scenario.model.variables}
