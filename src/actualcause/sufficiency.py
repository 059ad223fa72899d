"""Sufficient sets and direct causes.

A set of actual events is sufficient for an effect when pinning them forces
the effect however the unconstrained background varies.  In reliable mode
every derived variable outside the pins follows its equation and only the
remaining initial variables roam; in general mode every variable outside the
pins roams.

Sufficiency is monotone in general mode, and in reliable mode when every
parent of the target is initial.  Then every parent roams unless pinned,
and a pinned non-parent constrains nothing the target reads, so a set is
sufficient exactly when every row of the target's value table that keeps
its pinned parents actual gives the target's value.  Those questions are
read from the table (`_rows`) without a solve.  The other
reliable-mode questions, where a pinned derived ancestor can break its
equation, solve one world per background over the target's ancestors
(`_falsifier`).  `_kernel` picks one of the two for a target.  Each kernel
returns the target's candidates and a probe, built afresh for each
question, and both probes answer a failing set with the first falsifying
world they meet.  `_sets` is the one minimal-set search, over the kernel it
is given: a walk by size over `model.minimal_passing_sets` that grows a
failing set only by the candidates that world moves.  Direct causes are
`_sets` over `_rows`, screened (`direct_cause_sets`), so a monotone target
asked both questions is searched once.

Sufficient sets, direct causes and `is_sufficient` answers are memoized per
scenario and arguments; the kernels are not.  Each call returns a fresh
copy.
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
)
# not called here; perfbench's test_tracer_wraps_names_in_every_importing_module reads it
from .normality import plan_abnormality  # noqa: F401

# `probe(mask)`: None when pinning the masked candidates at their actual
# values forces the target, else the first falsifying world's (D(w), B(w))
Probe = Callable[[int], tuple[int, int] | None]
# `kernel(scenario, target)`: the target's candidates and their probe
Kernel = Callable[[Scenario, Event], tuple[tuple[str, ...], Probe]]

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


def _kernel(scenario: Scenario, var: str) -> Kernel:
    """The kernel that answers sufficiency for var: its own value table
    (`_rows`) where sufficiency is monotone, else solved worlds
    (`_falsifier`)."""
    model = scenario.model
    if scenario.mode == "general" or model.initial_variables().issuperset(model.parents(var)):
        return _rows
    return _falsifier


def _rows(scenario: Scenario, target: Event) -> tuple[tuple[str, ...], Probe]:
    """The table kernel: the target's candidates, its parents with more than
    one value in `Model.parents` order, and `probe(mask)` over them, read
    from the target's value table with every unmasked parent roaming.  Each
    parent's row offsets (its code weight times each value's position) and
    its actual offset are computed once.  A probe adds the masked
    candidates' actual offsets, walks the other candidates' offsets with the
    parents in declaration order and each one's values in domain order, and
    reads the table at each code.  It returns (D(w), 0) for the first row w
    that misses the target, D(w) being the candidates it sets off their
    actual values, or None.  While the target's value is actual, the
    all-actual row gives it, so it is skipped unread.  A one-value parent's
    only offset is 0 and it is in no D(w), so it is left out: every
    candidate doubles the table's rows at least, and as the table has at
    most ENUMERATION_CAP rows, no search over the candidates is past the
    cap."""
    model = scenario.model
    slots, table = model.table(target.var)
    candidates: list[str] = []
    offsets: list[range] = []
    actual: list[int] = []
    weight = 1
    for parent, index, radix in reversed(slots):
        if radix > 1:
            candidates.insert(0, parent)
            offsets.insert(0, range(0, radix * weight, weight))
            actual.insert(0, offsets[0][index[scenario.actual_value(parent)]])
        weight *= radix
    declared = sorted(range(len(candidates)), key=lambda i: model.variables.index(candidates[i]))
    skip = sum(actual) if scenario.actual_value(target.var) == target.value else -1
    value = target.value

    def probe(mask: int) -> tuple[int, int] | None:
        base = 0
        free = []
        for i in declared:
            if mask >> i & 1:
                base += actual[i]
            else:
                free.append(i)
        for row in itertools.product(*[offsets[i] for i in free]):
            code = base + sum(row)
            if code != skip and table[code] != value:
                return sum(1 << i for i, offset in zip(free, row) if offset != actual[i]), 0
        return None

    return tuple(candidates), probe


def _falsifier(scenario: Scenario, target: Event) -> tuple[tuple[str, ...], Probe]:
    """The sorted ancestors of a reliable-mode target with a derived parent,
    and `falsify(mask)` over them: it pins the masked candidates at their
    actual values, tries every setting of the other initial candidates,
    taken in model order with each variable's values in domain order (the
    last variable varying fastest), and solves the world each background
    gives.  It returns the first falsifying world's (D(w), B(w)) (see
    `_sets`), or None.  While the target's value is actual, the background
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
    candidates, probe = _kernel(scenario, effect.var)(scenario, effect)
    return probe(sum(1 << i for i, v in enumerate(candidates) if v in pinned)) is None


def minimal_sufficient_sets(scenario: Scenario, effect: Event) -> list[frozenset[Event]]:
    """All inclusion-minimal sufficient sets of actual events, ordered by
    size then variable tuple.

    Where sufficiency is monotone only the effect's parents with more than
    one value are candidates: every other variable is pinned or roams
    without changing a row the effect reads.  Otherwise only its ancestors
    are: the effect's value depends on its ancestors alone, so adding a
    non-ancestor to a set never changes whether it is sufficient.
    """
    scenario.model.check_value(effect.var, effect.value)
    return list(memoized(scenario, _sets, effect, _kernel(scenario, effect.var)))


def _sets(scenario: Scenario, target: Event, kernel: Kernel) -> list[frozenset[Event]]:
    """The minimal sets of candidates that force the target when pinned at
    their actual values, by size then positions (`minimal_passing_sets`).
    The candidates and their probe come from `kernel`, `_rows` or
    `_falsifier`, built once for this search.  Over `_rows` the sets are the
    minimal robust parent sets, which minimal sufficient sets and direct
    causes share.

    Each falsifying world w met is kept as D(w), the candidates where w
    differs from the actual world, and B(w), the pinned derived candidates
    that break their equation in w.  A set S with D(w) & S == 0 and
    B(w) & ~S == 0 is insufficient: pinning S at its actual values and
    setting its roaming ancestors as in w reproduces w on every ancestor, so
    the target misses its value again.  A set a stored world refutes fails
    untested.  A failing set holds B(w), so a sufficient superset of it must
    meet D(w), and the set grows by D(w) alone.  Only a pin can break its
    equation, and only a derived one: an initial variable's actual value is
    its equation's, and in a table read every parent roams or sits at its
    actual value, so B(w) is 0.  An empty D(w) (the target misses its value
    with every candidate actual) leaves nothing to grow, and the answer is
    [].  The empty set roams widest, so a background past the cap raises for
    it first."""
    candidates, falsify = kernel(scenario, target)
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
    target's value: the sets are `_sets` over the table kernel `_rows`, the
    search that a monotone target's minimal sufficient sets share; no model
    is built.

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
    found = memoized(scenario, _sets, target, _rows)
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
