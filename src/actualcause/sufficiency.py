"""Sufficient sets and direct causes.

A set of actual events is sufficient for an effect when pinning them forces
the effect however the unconstrained background varies.  In reliable mode
every derived variable outside the pins follows its equation and only the
remaining initial variables roam; in general mode every variable outside the
pins roams.

Sufficiency is monotone in general mode, and in reliable mode when every
parent of the target is initial.  Then every parent roams unless pinned,
and a pinned non-parent constrains nothing the target reads, so a set is
insufficient exactly when some row of the target's value table that keeps
its pinned parents actual misses the target's value.  Its minimal
sufficient sets come from one up-closure of the table's missing rows
(`_closure`), set algebra on ints of one bit per row, with no solve and no
walk: they are the prime implicants of the table that cover the actual
point.  As sufficiency is upward closed there, they answer every other
question too: a set is sufficient exactly when it holds one of them.  The
other reliable-mode questions, where a pinned derived ancestor can break
its equation, solve one world per background over the target's ancestors
(`_falsifier`), in a walk by size over `model.minimal_passing_sets` that
grows a failing set only by the candidates its falsifying world moves
(`_sets`).  Direct causes screen the
closure's minimal sets (`direct_cause_sets`), so a monotone target asked
both questions builds one closure.

Sufficient sets, closures, direct causes and `is_sufficient` answers are
memoized per scenario and arguments, each check of an argument inside the
memoized computation where the key holds the argument; the falsifier is
built afresh for each question.  Each call returns a fresh copy.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable

from .model import (
    Event,
    ModelError,
    Scenario,
    check_search_size,
    memoized,
    minimal_passing_sets,
    solve,
    sort_masks,
)
# not called here; perfbench's test_tracer_wraps_names_in_every_importing_module reads it
from .normality import plan_abnormality  # noqa: F401

# `falsify(mask)`: None when pinning the masked candidates at their actual
# values forces the target, else the first falsifying world's (D(w), B(w))
Probe = Callable[[int], tuple[int, int] | None]

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


def _monotone(scenario: Scenario, var: str) -> bool:
    """Is sufficiency for var read from its own value table (`_closure`)
    rather than from solved worlds (`_falsifier`)?"""
    model = scenario.model
    return scenario.mode == "general" or model.initial_variables().issuperset(model.parents(var))


def _closure(scenario: Scenario, target: Event) -> list[frozenset[Event]]:
    """The minimal sufficient sets of a table target, read off its value
    table as set algebra on ints with one bit per row.

    The candidates are the target's parents with more than one value, in
    `Model.parents` order; a one-value parent is in no set a row moves.  F
    holds the rows that miss the target, read from the table's bit column
    where it has one, else in one pass over its rows.  A set S is
    insufficient exactly when some row of F keeps every member of S actual.
    So F is up-closed one candidate axis at a time: onto each candidate's
    stand-in value (its first value that is not actual) goes the OR of all
    its slices, its actual slice keeps its own rows, and its other values'
    slices are filled, so that no set is read twice.  In the closure U, the
    row that holds S actual and every other candidate at its stand-in is
    set exactly when S is insufficient.  The minimal sufficient sets are the
    rows outside U that no step to a stand-in keeps outside U, each read
    back as a mask and sorted by `sort_masks`.  When the empty set is insufficient, 2**n is
    checked against ENUMERATION_CAP, as the walk over candidate sets does.
    Every candidate doubles the rows at least, so 2**n <= rows <= the cap
    the table was compiled under: the check fires only when the cap is
    lowered after the tables were compiled."""
    slots, table, ones = scenario.model.table(target.var)
    size = len(table)
    full = (1 << size) - 1
    value = target.value
    if ones is None:
        # one digit per row, the last row first: "1" where it misses value
        miss = int("".join(["0" if got == value else "1" for got in reversed(table)]), 2)
    else:
        miss = full ^ ones if value == 1 else ones if value == 0 else full
    up = miss
    # per candidate, in slot order: its weight, radix, actual value's
    # position, and `stripe`, the rows where it takes its first value: a
    # run of `weight` ones from each bit of `starts`, which marks the first
    # row of each block of the slots before it
    axes = []
    events = []
    weight = size
    starts = 1
    for parent, index, radix in slots:
        weight //= radix
        if radix > 1:
            event = Event(parent, scenario.actual_value(parent))
            events.append(event)
            actual = index[event.value]
            stand_in = 0 if actual else 1
            stripe = (starts << weight) - starts
            block = starts
            fold = up
            for p in range(1, radix):
                starts |= block << p * weight
                fold |= up >> p * weight
            up = up & stripe << actual * weight | (fold & stripe) << stand_in * weight
            for p in range(2, radix):
                up |= stripe << (p if p > actual else p - 1) * weight
            axes.append((weight, radix, actual, stripe))
    n = len(axes)
    if miss:
        check_search_size(
            1 << n, lambda: f"sufficient-set walk for {target.render()}", "candidate sets"
        )
    good = full ^ up
    spare = 0  # good rows whose step to some stand-in stays good
    for weight, _, actual, stripe in axes:
        if actual:
            spare |= (good & stripe) << actual * weight
        else:
            spare |= good >> weight & stripe
    masks = []
    digits = bin(good & ~spare)[:1:-1]
    code = digits.find("1")
    while code >= 0:
        mask = 0
        for i, (weight, radix, actual, _) in enumerate(axes):
            if code // weight % radix == actual:
                mask |= 1 << i
        masks.append(mask)
        code = digits.find("1", code + 1)
    return [
        frozenset(ev for i, ev in enumerate(events) if mask >> i & 1)
        for mask in sort_masks(masks, n)
    ]


def _falsifier(scenario: Scenario, target: Event) -> tuple[tuple[str, ...], Probe]:
    """The sorted ancestors of a reliable-mode target with a derived parent,
    and `falsify(mask)` over them: it pins the masked candidates at their
    actual values, tries every setting of the other initial candidates,
    taken in model order with each variable's values in domain order (the
    last variable varying fastest), and solves the world each background
    gives.  It returns the first falsifying world's (D(w), B(w)) (see
    `_walk`), or None.  While the target's value is actual, the background
    that keeps every roaming candidate actual reproduces the actual world,
    so it is skipped unsolved."""
    model = scenario.model
    candidates = tuple(sorted(model.ancestors(target.var)))
    actual = scenario.actual()
    roams = scenario.roaming_vars(frozenset(), target.var)
    position = {v: i for i, v in enumerate(candidates)}
    roaming = [
        (position[v], v, model.domains[v].values)
        for v in model.variables
        if v in position and v in roams
    ]
    derived = [(i, v) for i, v in enumerate(candidates) if v not in roams]
    skips = actual[target.var] == target.value

    def falsify(mask: int) -> tuple[int, int] | None:
        pins = {v: actual[v] for i, v in enumerate(candidates) if mask >> i & 1}
        names = [v for i, v, _ in roaming if not mask >> i & 1]
        pools = [values for i, _, values in roaming if not mask >> i & 1]
        check_search_size(
            math.prod(map(len, pools)), lambda: f"assignment space over {names}", "settings"
        )
        skip = tuple([actual[v] for v in names]) if skips else None
        for background in itertools.product(*pools):
            if background != skip:
                pins.update(zip(names, background))
                world = solve(scenario, pins)
                if world[target.var] != target.value:
                    differs = sum(
                        1 << i for i, v in enumerate(candidates) if world[v] != actual[v]
                    )
                    broken = sum(
                        1 << i
                        for i, v in derived
                        if mask >> i & 1 and model.lookup(v, world) != world[v]
                    )
                    return differs, broken
        return None

    return candidates, falsify


def is_sufficient(scenario: Scenario, events: Iterable[Event], effect: Event) -> bool:
    """Does pinning the events force the effect under every roaming
    background?  Each event must be actual, so no variable is pinned twice.
    Once they are checked, the answer is memoized per scenario on the pinned
    variables and the effect.  A table target's set is sufficient exactly
    when it holds one of its minimal sets (`_closure`): pinned variables
    outside the candidates change no row of its table."""
    scenario.model.check_value(effect.var, effect.value)
    pinned: set[str] = set()
    for ev in events:
        scenario.check_actual(ev, "plan pin")
        pinned.add(ev.var)
    if effect.var in pinned:
        return scenario.actual_value(effect.var) == effect.value
    return memoized(scenario, _is_sufficient, frozenset(pinned), effect)


def _is_sufficient(scenario: Scenario, pinned: frozenset[str], effect: Event) -> bool:
    if _monotone(scenario, effect.var):
        found = memoized(scenario, _closure, effect)
        return any(all(ev.var in pinned for ev in events) for events in found)
    candidates, falsify = _falsifier(scenario, effect)
    return falsify(sum(1 << i for i, v in enumerate(candidates) if v in pinned)) is None


def minimal_sufficient_sets(scenario: Scenario, effect: Event) -> list[frozenset[Event]]:
    """All inclusion-minimal sufficient sets of actual events, ordered by
    size then variable tuple.

    Where sufficiency is monotone only the effect's parents with more than
    one value are candidates: every other variable is pinned or roams
    without changing a row the effect reads.  Otherwise only its ancestors
    are: the effect's value depends on its ancestors alone, so adding a
    non-ancestor to a set never changes whether it is sufficient.
    """
    return list(memoized(scenario, _sets, effect))


def _sets(scenario: Scenario, target: Event) -> list[frozenset[Event]]:
    """The minimal sets of candidates that force the target when pinned at
    their actual values, by size then positions: a table target's closure's
    (`_closure`), or else the walk's (`_walk`).  The target's value is
    checked here, so a memo hit checks nothing again and a bad value stores
    nothing."""
    scenario.model.check_value(target.var, target.value)
    if _monotone(scenario, target.var):
        return memoized(scenario, _closure, target)
    return _walk(scenario, target)


def _walk(scenario: Scenario, target: Event) -> list[frozenset[Event]]:
    """The minimal sufficient sets of the target's ancestors, found by a walk
    by size over `minimal_passing_sets` whose tests `_falsifier` answers.

    Each falsifying world w met is kept as D(w), the candidates where w
    differs from the actual world, and B(w), the pinned derived candidates
    that break their equation in w.  A set S with D(w) & S == 0 and
    B(w) & ~S == 0 is insufficient: pinning S at its actual values and
    setting its roaming ancestors as in w reproduces w on every ancestor, so
    the target misses its value again.  A set a stored world refutes fails
    untested.  A failing set holds B(w), so a sufficient superset of it must
    meet D(w), and the set grows by D(w) alone.  An empty D(w) (the target
    misses its value with every candidate actual) leaves nothing to grow,
    and the answer is [].  The empty set roams widest, so a background past
    the cap raises for it first."""
    candidates, falsify = _falsifier(scenario, target)
    refuting: list[tuple[int, int]] = []

    def test(mask: int) -> int | None:
        for differs, broken in refuting:
            if differs & mask == 0 and broken & ~mask == 0:
                return differs
        refutation = falsify(mask)
        if refutation is None:
            return None
        refuting.append(refutation)
        return refutation[0]

    events = [Event(v, scenario.actual_value(v)) for v in candidates]
    masks = minimal_passing_sets(
        len(events), test, lambda: f"sufficient-set walk for {target.render()}", "candidate sets"
    )
    return [frozenset(ev for i, ev in enumerate(events) if mask >> i & 1) for mask in masks]


def direct_cause_sets(scenario: Scenario, target: Event) -> list[frozenset[Event]]:
    """Minimal robust parent sets of the target that pass the abnormality
    screen, in canonical order.  A parent set is robust when every row of the
    target's value table that keeps it at its actual values gives the
    target's value: the sets are the minimal sets of the target's closure
    (`_closure`), which a monotone target's minimal sufficient sets and
    `is_sufficient` answers share; no model is built.

    The screen wants a world that moves some members and misses the target
    no less normally than actuality.  Such a world pins every parent, so only
    the target is ranked, and it obeys its equation.  A parent at its default
    ranks lower pinned anywhere else, any other parent no lower anywhere, and
    any world that misses the target moves a member of a robust set.  So a
    set passes exactly when the parents at their defaults are not robust:
    every minimal set passes, or, if one lies inside those parents, none does."""
    return list(memoized(scenario, _direct_cause_sets, target))


def _direct_cause_sets(scenario: Scenario, target: Event) -> list[frozenset[Event]]:
    scenario.check_actual(target, "target")
    if scenario.model.is_initial(target.var):
        raise NoParentsError(f"{target.var!r} has no parents")
    found = memoized(scenario, _closure, target)
    if any(all(scenario.defaults[ev.var] == ev.value for ev in events) for events in found):
        return []
    return found


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
