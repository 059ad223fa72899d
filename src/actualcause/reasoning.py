"""Stepwise causal reasoning over cause nets.

A cause net abstracts an agent's current causal knowledge about an effect:
a set of actual events that is sufficient for it, grown from the effect's
direct-cause sets by repeatedly swapping a member for one of that member's
own direct-cause sets.  Interpolation walks knowledge toward the effect
(replace a member by its successors on direct-cause chains), extrapolation
walks it away (replace a member by one of its minimal sufficient sets), and
a flank combines the two.  Distance averages chain lengths from net members
to the effect.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .model import (
    Event,
    ModelError,
    Scenario,
    memoized,
    render_events,
)
from .sufficiency import (
    NoParentsError,
    direct_cause_parents,
    direct_cause_sets,
    is_sufficient,
    minimal_sufficient_sets,
)

__all__ = [
    "CauseNet",
    "NoChainError",
    "ReasoningError",
    "cause_nets",
    "distance",
    "extrapolate",
    "flank",
    "interpolate",
]


class ReasoningError(ModelError):
    """A net operation was applied outside its contract."""


class NoChainError(ReasoningError):
    """A net member has no direct-cause chain to the effect."""


@dataclass(frozen=True)
class CauseNet:
    events: frozenset[Event]
    provenance: tuple[str, ...] = ()


def _require_reliable(scenario: Scenario) -> None:
    if scenario.mode != "reliable":
        raise ReasoningError("net reasoning is defined for reliable mode only")


def _as_net(net: CauseNet | frozenset[Event]) -> CauseNet:
    if isinstance(net, CauseNet):
        return net
    return CauseNet(events=frozenset(net))


def _operands(
    scenario: Scenario, net: CauseNet | frozenset[Event], member: Event, effect: Event
) -> CauseNet:
    """`net` as a CauseNet, once the scenario is in reliable mode, the effect
    holds its actual value, and the member is in the net at its actual
    value; the one entry check of `interpolate`, `extrapolate` and `flank`."""
    _require_reliable(scenario)
    scenario.check_actual(effect, "effect")
    net = _as_net(net)
    if member not in net.events:
        raise ReasoningError(
            f"{member.render()} is not a member of net {render_events(net.events)}"
        )
    scenario.check_actual(member, "net member")
    return net


ChainCounts = tuple[dict[str, int], dict[str, int], dict[str, list[str]]]


def _count_chains(scenario: Scenario, goal: str) -> ChainCounts:
    """For every variable with a direct-cause chain to the goal: the number
    of such chains, the sum of their edge counts, and its successors on
    them.  The goal itself has one chain of length zero.  One pass over the
    reverse topological order pushes each on-chain vertex's counts to its
    direct-cause parents, so only the goal and its ancestors are read.
    Memoized per scenario and goal: callers go through `memoized` and only
    read the dicts."""
    count = {goal: 1}
    length = {goal: 0}
    onward: dict[str, list[str]] = {}
    for var in reversed(scenario.model.topological_order()):
        if var not in count:
            continue
        for parent in direct_cause_parents(scenario, var):
            count[parent] = count.get(parent, 0) + count[var]
            length[parent] = length.get(parent, 0) + length[var] + count[var]
            onward.setdefault(parent, []).append(var)
    return count, length, onward


def cause_nets(scenario: Scenario, effect: Event) -> list[CauseNet]:
    """Closure of the effect's direct-cause sets under member replacement by
    the member's own direct-cause sets, breadth first, deduplicated, and at
    most as many replacements deep as the model has variables."""
    _require_reliable(scenario)
    scenario.check_actual(effect, "effect")
    model = scenario.model
    if model.is_initial(effect.var):
        raise NoParentsError(f"{effect.var!r} has no parents")

    def dc_sets(var: str) -> list[frozenset[Event]]:
        return direct_cause_sets(scenario, Event(var, scenario.actual_value(var)))

    nets: list[CauseNet] = []
    seen: set[frozenset[Event]] = set()
    queue: deque[tuple[frozenset[Event], tuple[str, ...], int]] = deque()
    for group in dc_sets(effect.var):
        if group not in seen:
            seen.add(group)
            queue.append(
                (group, (f"direct-cause set of {effect.render()}",), 0)
            )
    while queue:
        events, provenance, depth = queue.popleft()
        nets.append(CauseNet(events=events, provenance=provenance))
        if depth >= len(model.variables):
            continue
        for member in sorted(events):
            if model.is_initial(member.var):
                continue
            for group in dc_sets(member.var):
                replaced = (events - {member}) | group
                if replaced in seen:
                    continue
                seen.add(replaced)
                queue.append(
                    (
                        replaced,
                        provenance
                        + (
                            f"replace {member.render()} by "
                            f"{render_events(group)}",
                        ),
                        depth + 1,
                    )
                )
    return nets


def _verify_sufficient(
    scenario: Scenario,
    events: frozenset[Event],
    effect: Event,
    operation: str,
) -> None:
    if not is_sufficient(scenario, events, effect):
        raise ReasoningError(
            f"{operation} produced {render_events(events)}, which is not "
            f"sufficient for {effect.render()}"
        )


def interpolate(
    scenario: Scenario,
    net: CauseNet | frozenset[Event],
    member: Event,
    effect: Event,
) -> CauseNet:
    """Replace a member by its successors on every direct-cause chain from
    the member to the effect: the successors from which the effect is
    reachable.  A member adjacent to the effect pulls the effect itself into
    the net (where it is trivially sufficient)."""
    net = _operands(scenario, net, member, effect)
    if member.var == effect.var:
        return net
    _, _, onward = memoized(scenario, _count_chains, effect.var)
    step = {Event(var, scenario.actual_value(var)) for var in onward.get(member.var, ())}
    if not step:
        raise NoChainError(
            f"{member.render()} has no direct-cause chain to {effect.render()}"
        )
    events = (net.events - {member}) | step
    _verify_sufficient(scenario, events, effect, "interpolation")
    return CauseNet(
        events=events,
        provenance=net.provenance
        + (f"interpolate {member.render()} -> {render_events(step)}",),
    )


def extrapolate(
    scenario: Scenario,
    net: CauseNet | frozenset[Event],
    member: Event,
    effect: Event,
) -> CauseNet:
    """Replace a member by its first eligible minimal sufficient set: the
    canonical order is size then variable tuple, and a set is eligible when
    it is non-empty and does not contain the member itself.  With no
    eligible set (initial members in particular) the net is unchanged."""
    net = _operands(scenario, net, member, effect)
    sets = minimal_sufficient_sets(scenario, member)
    chosen = next((events for events in sets if events and member not in events), None)
    if chosen is None:
        return CauseNet(
            events=net.events,
            provenance=net.provenance
            + (f"extrapolate {member.render()} -> identity",),
        )
    events = (net.events - {member}) | chosen
    _verify_sufficient(scenario, events, effect, "extrapolation")
    return CauseNet(
        events=events,
        provenance=net.provenance
        + (f"extrapolate {member.render()} -> {render_events(chosen)}",),
    )


def flank(
    scenario: Scenario,
    net: CauseNet | frozenset[Event],
    member: Event,
    effect: Event,
) -> CauseNet:
    """Interpolate the member, then extrapolate each newly added member
    once (in canonical event order)."""
    net = _operands(scenario, net, member, effect)
    stepped = interpolate(scenario, net, member, effect)
    added = stepped.events - (net.events - {member})
    out = stepped
    for event in sorted(added):
        if event in out.events:
            out = extrapolate(scenario, out, event, effect)
    return out


def distance(
    scenario: Scenario,
    net: CauseNet | frozenset[Event],
    effect: Event,
) -> float:
    """Mean edge count over every (member, chain) pair, where the chains of
    a member are all its direct-cause chains to the effect and the effect
    itself contributes a single chain of length zero.  The chains are
    counted, not enumerated, so the cost is linear in the graph's size."""
    _require_reliable(scenario)
    scenario.check_actual(effect, "effect")
    net = _as_net(net)
    if not net.events:
        raise ReasoningError("distance of an empty net is undefined")
    count, length, _ = memoized(scenario, _count_chains, effect.var)
    chains = total = 0
    for member in sorted(net.events):
        scenario.check_actual(member, "net member")
        if member.var not in count:
            raise NoChainError(
                f"{member.render()} has no direct-cause chain to "
                f"{effect.render()}"
            )
        chains += count[member.var]
        total += length[member.var]
    return total / chains
