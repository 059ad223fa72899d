"""Normality ranks, assignment comparison, intrinsic reduction, abnormality.

The public two-level lattice (`rank`, `compare`) ranks a variable Top when it
is at its default (initial variables, and every variable in general mode) or
obeys its equation (derived variables in reliable mode), and Deviant
otherwise; distinct deviations are incomparable.  The abnormality check used
by the cause engine ranks inside the intrinsically reduced scenario, in both
modes as the oracle does: a variable the reduction leaves initial ranks by its
default and any other by its equation.  It tolerates pins: a pin may take
any value where its variable deviates in actuality, and otherwise only its
top values (its actual or default value), so that off-default, off-actual
contrasts are tolerated exactly when the actual side deviates too.

The reduction is read from the scenario's value tables (`Reduction`), not
built, and serves the contrastive comparator too.  It builds no rank: the
actual world obeys every table, so a variable with a kept parent ranks no
lower than there exactly when it obeys its table, and one with none exactly
when it sits at its default or its actual value.  Whether a pin is tolerated
depends only on the pinned value, so `Reduction.pinnable` lists each pin's
values once, up front: both searches pin only those, and `no_less_normal`
ranks just the unpinned variables of each solved world.  One abnormality
search per plan (`plan_abnormality`) serves both of the engine's screens: the
set-level one reads its first witness and certified members, the single-event
one the first witness that moves each member alone.  Since nothing else is
read, the search stops each contrast at its first witness and skips, unsolved,
a contrast whose witnesses could add none of these.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Container, Iterable, Mapping, Sequence

from .model import (
    Assignment,
    Event,
    Scenario,
    UnknownVariableError,
    check_search_size,
    memoized,
    solve,
)

__all__ = [
    "AbnormalityWitness",
    "OrderResult",
    "PlanAbnormality",
    "Rank",
    "Reduction",
    "compare",
    "plan_abnormality",
    "rank",
]


class OrderResult(enum.Enum):
    EQUAL = "equal"
    GREATER_OR_EQUAL = "greater-or-equal"
    LESS_OR_EQUAL = "less-or-equal"
    INCOMPARABLE = "incomparable"


_LEVEL_DEVIANT = 0
_LEVEL_TOP = 2


@dataclass(frozen=True)
class Rank:
    """Normality of one variable's value.  Higher level is more normal."""

    level: int
    value: int | None = None
    context: tuple[int, ...] = ()


TOP = Rank(_LEVEL_TOP)


def _deviant(value: int, context: tuple[int, ...] = ()) -> Rank:
    return Rank(_LEVEL_DEVIANT, value, context)


def rank(
    scenario: Scenario,
    var: str,
    value: int,
    parent_values: Mapping[str, int] | None = None,
) -> Rank:
    """Public two-level rank: Top or Deviant, no pins."""
    model = scenario.model
    model.check_value(var, value)
    if scenario.mode == "general" or model.is_initial(var):
        if value == scenario.defaults[var]:
            return TOP
        return _deviant(value)
    parents = model.parents(var)
    if parent_values is None:
        raise UnknownVariableError(
            f"rank of derived variable {var!r} needs its parent values"
        )
    missing = [p for p in parents if p not in parent_values]
    if missing:
        raise UnknownVariableError(
            f"rank of {var!r} is missing parent value(s) {missing}"
        )
    for parent in parents:
        model.check_value(parent, parent_values[parent])
    if model.lookup(var, parent_values) == value:
        return TOP
    return _deviant(value, tuple(parent_values[p] for p in parents))


def compare(
    scenario: Scenario,
    first: Mapping[str, int],
    second: Mapping[str, int],
) -> OrderResult:
    """Pointwise partial order on total assignments, by the public two-level
    ranks: `first` against `second`.  Every variable is ranked in both before
    any is compared, so a bad value raises wherever it sits.  Equal ranks
    agree, a higher level is more normal, and distinct ranks at one level
    (two different deviations) are incomparable."""
    model = scenario.model
    for assignment in (first, second):
        missing = set(model.variables) - set(assignment)
        if missing:
            raise UnknownVariableError(
                f"assignment is missing variable(s) {sorted(missing)}"
            )
    pairs = [
        (rank(scenario, var, first[var], first), rank(scenario, var, second[var], second))
        for var in model.variables
    ]
    # per differing variable: 1 where `first` ranks higher, -1 where lower,
    # 0 where both deviate differently
    signs = {(a.level > b.level) - (a.level < b.level) for a, b in pairs if a != b}
    if 0 in signs or len(signs) == 2:
        return OrderResult.INCOMPARABLE
    if not signs:
        return OrderResult.EQUAL
    return OrderResult.GREATER_OR_EQUAL if 1 in signs else OrderResult.LESS_OR_EQUAL


# ---------------------------------------------------------------------------
# Intrinsic reduction
# ---------------------------------------------------------------------------


class Reduction:
    """The intrinsic reduction of a scenario at a pin set, read from the
    scenario's own value tables rather than built.

    The strict ancestors of the pins, minus the pins, are removed and held at
    their actual values.  Substitution never simplifies, so a kept variable is
    initial in the reduction (in `initial`) exactly when it has no kept
    parents, and then ranks Top at its default and deviates, with no context,
    elsewhere.  Any other kept variable ranks Top when it obeys its own table,
    read with the removed parents at their actual values (never the world's).

    So no rank need be built.  The actual world is `solve`'s and obeys every
    table, so a variable with a kept parent ranks Top there, and no lower in
    a world exactly when it obeys its table.  One in `initial` ranks no lower
    exactly when it sits at its default or its actual value, as distinct
    deviations are incomparable.  Pins that remove nothing leave `kept` and
    `initial` the model's own.
    """

    def __init__(self, scenario: Scenario, pins: frozenset[str]) -> None:
        model = scenario.model
        removed = frozenset().union(*map(model.ancestors, pins)) - pins
        self.scenario = scenario
        self.actual = scenario.actual()
        self.removed = {v: self.actual[v] for v in sorted(removed)}
        if removed:
            self.kept: Sequence[str] = [v for v in model.variables if v not in removed]
            self.initial = {v for v in self.kept if removed.issuperset(model.parents(v))}
        else:
            self.kept = model.variables
            self.initial = model.initial_variables()

    def pinnable(self, var: str, tops: Container[int]) -> list[int]:
        """The values of `var`, in domain order, that a search may pin it at:
        every value when `var` is removed (it is never ranked) or deviates in
        actuality, else only its top values, those in `tops`.  A world that
        pins `var` at any other value is never as normal as actuality, so
        searches that pin only these values leave `no_less_normal` the
        unpinned variables to rank."""
        values = self.scenario.model.domains[var].values
        if var in self.removed or (
            var in self.initial and self.actual[var] != self.scenario.defaults[var]
        ):
            return list(values)
        return [value for value in values if value in tops]

    def no_less_normal(
        self,
        world: Mapping[str, int],
        pinned: Container[str],
        unranked: str | None = None,
    ) -> bool:
        """Whether `world` is at least as normal as the actual world (EQUAL or
        GREATER_OR_EQUAL) over the kept variables but `unranked`, that is, no
        variable ranks lower or incomparably.  Only unpinned variables are
        ranked, each by the value rule of the class docstring: every pin is
        taken to be at a `pinnable` value."""
        model = self.scenario.model
        defaults = self.scenario.defaults
        values = {**world, **self.removed} if self.removed else world
        for var in self.kept:
            if var == unranked or var in pinned:
                continue
            value = world[var]
            if var in self.initial:
                if value != defaults[var] and value != self.actual[var]:
                    return False
            elif model.lookup(var, values) != value:
                return False
        return True


# ---------------------------------------------------------------------------
# Abnormality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbnormalityWitness:
    """A contrast plus background pins that break the effect no less
    normally than the actual world."""

    contrast: frozenset[Event]
    background: frozenset[Event]
    outcome: tuple[tuple[str, int], ...]

    def outcome_map(self) -> Assignment:
        return dict(self.outcome)


@dataclass(frozen=True)
class PlanAbnormality:
    passed: bool
    witness: AbnormalityWitness | None
    certified: frozenset[str]
    # (variable, first witness whose contrast moves that variable alone), in
    # model order, for each plan variable that has one
    single_flips: tuple[tuple[str, AbnormalityWitness], ...]


def plan_abnormality(
    scenario: Scenario,
    plan_vars: Iterable[str],
    effect: Event,
) -> PlanAbnormality:
    """Search contrasts over the plan variables (and free background pins)
    for a world that breaks the effect no less normally than actuality.

    Contrast vectors differing from the actual one are tried in
    enumeration order, each under the backgrounds in enumeration order until
    its first witness; a pin value that `Reduction.pinnable` leaves out can
    never be a witness's, so it is skipped unsolved.  The contrasts left
    other than the actual one, times the backgrounds left, are the candidate
    worlds counted against ENUMERATION_CAP before the first solve.
    `witness` is the first world found; `certified` holds each variable some
    witness flips, plus, when the plan passes, each plan variable at its
    default.  `single_flips` records, per variable, the first witness whose
    contrast moves that variable alone, which is what the engine's "3prime"
    screen reads.  A contrast's later witnesses add nothing to these, and
    once a witness is found, a contrast that flips only variables some
    witness has flipped, and is not the first lone flip of its variable to
    be tried, could add nothing either: it is skipped unsolved.

    The result is memoized per scenario and arguments.
    """
    pins = frozenset(plan_vars)
    return memoized(scenario, _plan_abnormality, pins, effect)


def _plan_abnormality(
    scenario: Scenario,
    pins: frozenset[str],
    effect: Event,
) -> PlanAbnormality:
    model = scenario.model
    model.check_value(effect.var, effect.value)
    ordered_pins = [v for v in model.variables if v in pins]
    if len(ordered_pins) != len(pins):
        unknown = pins - set(model.variables)
        raise UnknownVariableError(f"unknown plan variable(s) {sorted(unknown)}")
    reduction = Reduction(scenario, pins)
    actual = reduction.actual
    roaming_set = scenario.roaming_vars(pins, effect.var)
    roaming = [v for v in model.variables if v in roaming_set]
    # a pin's top values are its actual and default ones, so the actual
    # value always stays, and the order of the rest is kept
    defaults = scenario.defaults
    contrasts = [reduction.pinnable(v, (actual[v], defaults[v])) for v in ordered_pins]
    backgrounds = [reduction.pinnable(v, (actual[v], defaults[v])) for v in roaming]
    check_search_size(
        (math.prod(map(len, contrasts)) - 1) * math.prod(map(len, backgrounds)),
        lambda: f"abnormality search over {ordered_pins}",
        "candidate worlds",
    )

    first_witness: AbnormalityWitness | None = None
    single: dict[str, AbnormalityWitness] = {}
    flipped: set[str] = set()

    for vector in itertools.product(*contrasts):
        contrast = dict(zip(ordered_pins, vector))
        delta = [v for v in ordered_pins if contrast[v] != actual[v]]
        if not delta:
            continue
        lone = delta[0] if len(delta) == 1 else None
        # a witness here could add no flipped variable and no single flip
        if first_witness is not None and flipped.issuperset(delta):
            if lone is None or lone in single:
                continue
        for combo in itertools.product(*backgrounds):
            overrides = dict(contrast)
            overrides.update(zip(roaming, combo))
            world = solve(scenario, overrides)
            if world[effect.var] == effect.value:
                continue
            if not reduction.no_less_normal(world, overrides):
                continue
            flipped.update(delta)
            if first_witness is None or (lone is not None and lone not in single):
                witness = AbnormalityWitness(
                    contrast=frozenset(map(Event, ordered_pins, vector)),
                    background=frozenset(map(Event, roaming, combo)),
                    outcome=tuple(sorted(world.items())),
                )
                if first_witness is None:
                    first_witness = witness
                if lone is not None:
                    single[lone] = witness
            break  # the contrast's later witnesses would add nothing

    passed = first_witness is not None
    certified: set[str] = set(flipped)
    if passed:
        for var in ordered_pins:
            if actual[var] == scenario.defaults[var]:
                certified.add(var)
    return PlanAbnormality(
        passed=passed,
        witness=first_witness,
        certified=frozenset(certified),
        single_flips=tuple((v, single[v]) for v in ordered_pins if v in single),
    )
