"""Contrastive counterfactual comparator over the pin-tolerant rank lattice.

An event X=x is reported when X belongs to some minimal contrast set: pin
the contrast set componentwise away from its actual values, hold a freeze
set at its actual values, let everything else follow its equations, and
require the effect to break in a world no less normal than the actual one.

Normality is judged inside the intrinsic reduction (strict ancestors of the
contrast set dropped, their actual values substituted), which
`normality.Reduction` reads from the parent's tables without building it,
over every kept variable except the effect.  A pinned variable -- contrast
member and freeze alike -- may take any value where it deviates in
actuality, and otherwise only its top value, its default; unpinned variables
rank Top when they are initial-in-the-reduction at their default or derived
and obeying their reduced equation, and otherwise carry their value (and
their kept parents' values) as a deviation, distinct deviations being
incomparable.  The actual world is ranked by the same unpinned rule.

Only the values `Reduction.pinnable` lists are pinned: contrast members at
those other than their actual value, freezes where the actual value is one
of them.  So each solved world ranks just its unpinned variables, and those
are still verified one by one, because a contrast set with internal paths
can push removed variables off their actual values and break kept
variables' reduced conformity.  Freezes are further limited to strict
descendants of the contrast set, which keeps the first witness (see
`_find_witness`).  The pruning is exercised against a direct
definition-unfolding oracle in the test suite and in `verify`.

Before anything is ranked or solved, `_reach` bounds the values each
ancestor of the effect, and the effect, can take in any candidate world of
the contrast set -- whatever its contrast vector and freeze set -- from
the value tables alone: a contrast member any domain value but its actual
one, a variable the contrast set cannot move its actual value, and a moved
one every value its table gives over its parents' sets, plus its actual
value, at which it may be frozen.  By induction over the topological order
every candidate world keeps each such variable inside its set: a contrast
member is pinned off its actual value; an unmoved variable is neither
pinned nor has a moved parent, so its parents sit at their actual values
and it reads its actual value from its table; a moved one is frozen at its
actual value or reads its table at parent values inside their sets.  So
when the effect's set is its actual value alone, no candidate world breaks
the effect, and the contrast set has no witness without one world solved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .model import (
    Assignment,
    Event,
    Scenario,
    check_search_size,
    minimal_passing_sets,
    solve,
)
from .normality import Reduction

__all__ = [
    "HPHResult",
    "HPHVerdict",
    "HPHWitness",
    "hph_causes",
]


@dataclass(frozen=True)
class HPHWitness:
    contrast: frozenset[Event]
    frozen: frozenset[Event]
    outcome: tuple[tuple[str, int], ...]

    def outcome_map(self) -> Assignment:
        return dict(self.outcome)


@dataclass(frozen=True)
class HPHVerdict:
    event: Event
    contrast_set: frozenset[str]
    witness: HPHWitness


@dataclass(frozen=True)
class HPHResult:
    effect: Event
    events: frozenset[Event]
    verdicts: tuple[HPHVerdict, ...]

    def vars(self) -> frozenset[str]:
        return frozenset(ev.var for ev in self.events)


def hph_causes(scenario: Scenario, effect: Event) -> HPHResult:
    """Members of minimal contrast sets admitting an admissible witness."""
    model = scenario.model
    scenario.check_actual(effect, "effect")
    actual = scenario.actual()
    ancestors = sorted(model.ancestors(effect.var))
    contrastable = [v for v in ancestors if actual[v] != scenario.defaults[v]]
    n = len(contrastable)
    # each passing mask's contrast set and witness
    found: dict[int, tuple[frozenset[str], HPHWitness]] = {}

    def test(mask: int) -> int | None:
        # every prefix of a minimal contrast set fails, so growing a failing
        # set only above its highest position reaches every one
        contrast_set = frozenset(v for i, v in enumerate(contrastable) if mask >> i & 1)
        if mask and (witness := _find_witness(scenario, contrast_set, effect)):
            found[mask] = contrast_set, witness
            return None
        return (1 << n) - (1 << mask.bit_length())

    minimal = minimal_passing_sets(
        n, test, lambda: f"contrast-set walk for {effect.render()}", "contrast sets"
    )
    verdicts: dict[Event, HPHVerdict] = {}  # each event's first, by size then positions
    for mask in minimal:
        contrast_set, witness = found[mask]
        for var in sorted(contrast_set):
            event = Event(var, actual[var])
            verdicts.setdefault(event, HPHVerdict(event, contrast_set, witness))
    return HPHResult(effect=effect, events=frozenset(verdicts), verdicts=tuple(verdicts.values()))


def _reach(
    scenario: Scenario, contrast_set: frozenset[str], effect_var: str
) -> tuple[set[str], set[int]]:
    """The contrast set with its strict descendants, which are all that a
    candidate world of the contrast set can move, and a sound set of the
    values the effect takes in those worlds (see the module docstring)."""
    model = scenario.model
    actual = scenario.actual()
    ancestors = model.ancestors(effect_var)
    moved = set(contrast_set)
    possible: dict[str, set[int]] = {}  # moved ancestors and the effect
    for var in model.topological_order():
        if var in contrast_set:
            possible[var] = {x for x in model.domains[var] if x != actual[var]}
        elif not moved.isdisjoint(model.parents(var)):
            moved.add(var)
            if var in ancestors or var == effect_var:
                parents = model.parent_tuple(var)
                pools = [possible.get(p, (actual[p],)) for p in parents]
                values = {
                    model.lookup(var, dict(zip(parents, combo)))
                    for combo in itertools.product(*pools)
                }
                possible[var] = values | {actual[var]}
    return moved, possible.get(effect_var, {actual[effect_var]})


def _find_witness(
    scenario: Scenario, contrast_set: frozenset[str], effect: Event
) -> HPHWitness | None:
    """First admissible witness in canonical order: contrast vectors in
    domain order (defaults first), freeze sets by size then position.

    Only strict descendants of the contrast set are freeze candidates, and
    this keeps the first witness.  A freeze v outside them sits at its
    actual value, as do its kept parents, since every other pin is at its
    actual value or a contrast v does not descend from.  Freezing v thus
    changes no value and no other variable's rank, and unfreezing v ranks
    it by its free rank, which equals its actual rank.  So if a freeze set
    F passes, F minus v passes too and comes earlier in the canonical
    order, and the first witness never freezes v.

    A contrast set under which the effect cannot change (`_reach`) has no
    witness and is answered before the pre-check against ENUMERATION_CAP,
    however large its search would be.  The pre-check counts only the
    candidates that remain.
    """
    model = scenario.model
    actual = scenario.actual()
    moved, effect_values = _reach(scenario, contrast_set, effect.var)
    if effect_values == {effect.value}:
        return None
    reduction = Reduction(scenario, contrast_set)

    ordered = [v for v in model.variables if v in contrast_set]
    # each member's pinnable values but its actual one, the default first
    choices: list[list[int]] = []
    for var in ordered:
        default = scenario.defaults[var]
        values = [x for x in reduction.pinnable(var, (default,)) if x != actual[var]]
        choices.append(sorted(values, key=lambda x: x != default))

    freeze_pool = [
        var
        for var in model.variables
        if var in moved
        and var not in contrast_set
        and var != effect.var
        and actual[var] in reduction.pinnable(var, (scenario.defaults[var],))
    ]

    check_search_size(
        (2 ** len(freeze_pool)) * math.prod(len(c) for c in choices),
        lambda: f"contrast search over {sorted(contrast_set)}",
        "candidate worlds",
    )

    for vector in itertools.product(*choices):
        contrast = dict(zip(ordered, vector))
        for count in range(len(freeze_pool) + 1):
            for frozen_combo in itertools.combinations(freeze_pool, count):
                overrides = dict(contrast)
                overrides.update({v: actual[v] for v in frozen_combo})
                world = solve(scenario, overrides)
                if world[effect.var] == effect.value:
                    continue
                if reduction.no_less_normal(world, overrides, unranked=effect.var):
                    return HPHWitness(
                        contrast=frozenset(
                            Event(v, contrast[v]) for v in ordered
                        ),
                        frozen=frozenset(
                            Event(v, actual[v]) for v in frozen_combo
                        ),
                        outcome=tuple(sorted(world.items())),
                    )
    return None
