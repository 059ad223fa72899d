"""Deterministic structural models over finite integer domains.

A model is a finite set of variables, one total equation per variable, and a
finite integer domain per variable.  There are no exogenous variables:
context is absorbed into constant equations, and the initial/derived
partition is always computed from the equations, never declared.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, TypeVar

from .expr import EvaluationError, Expr, substitute, value_table

__all__ = [
    "ENUMERATION_CAP",
    "ActualityError",
    "Assignment",
    "CycleError",
    "Domain",
    "DomainError",
    "Event",
    "Model",
    "ModelError",
    "NonExhaustivePiecewiseError",
    "Scenario",
    "SearchTooLargeError",
    "UnknownVariableError",
    "check_search_size",
    "checked_solve",
    "enumerate_settings",
    "event_set",
    "memoized",
    "minimal_passing_sets",
    "render_events",
    "solve",
    "sort_masks",
]

# Hard ceiling on any enumerated assignment space.
ENUMERATION_CAP = 1 << 20

Assignment = dict[str, int]
# a parent slot of a value table: the parent, its `Domain.positions`, its domain size
Slot = tuple[str, dict[int, int], int]
# a variable's plan entry: its parent slots, its value table, and the table's
# bit column (`value_table`) where it has one, else None
Plan = tuple[tuple[Slot, ...], list[int], int | None]

T = TypeVar("T")


class ModelError(Exception):
    """Base class for structural-model errors."""


class CycleError(ModelError):
    """The equation graph contains a dependency cycle."""


class DomainError(ModelError):
    """A value fell outside a declared domain, or a domain is malformed."""


class UnknownVariableError(ModelError):
    """An equation or query referenced an undeclared variable."""


class NonExhaustivePiecewiseError(ModelError):
    """A piecewise equation has no true guard for some parent setting."""


class SearchTooLargeError(ModelError):
    """An enumeration would exceed ENUMERATION_CAP."""


class ActualityError(ModelError):
    """An operation needed an event at its actual value and got another."""


@dataclass(frozen=True)
class Domain:
    """A finite, duplicate-free tuple of integer values, in declared order.

    `positions` maps each value to its position.  It is built once, with
    the domain, and every model reads it from there, so all variables that
    share a domain (every binary one shares `BINARY`) share the one map."""

    values: tuple[int, ...]
    positions: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.values:
            raise DomainError("domain must not be empty")
        positions = {value: i for i, value in enumerate(self.values)}
        if len(positions) != len(self.values):
            raise DomainError(f"domain has duplicate values: {self.values}")
        object.__setattr__(self, "positions", positions)

    def __contains__(self, value: int) -> bool:
        return value in self.values

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


BINARY = Domain((0, 1))


@dataclass(frozen=True, order=True)
class Event:
    """A variable taking a specific value."""

    var: str
    value: int

    def render(self) -> str:
        return f"{self.var}={self.value}"


def event_set(assignment: Mapping[str, int]) -> frozenset[Event]:
    return frozenset(Event(var, value) for var, value in assignment.items())


def render_events(events: Iterable[Event]) -> str:
    inner = ", ".join(ev.render() for ev in sorted(events))
    return "{" + inner + "}"


class Model:
    """A validated structural model, compiled at construction.

    Validation is eager: construction fails on unknown references, cycles,
    missing domains, out-of-domain constants, non-exhaustive piecewise
    equations, and equations whose value can leave the variable's domain for
    some setting of its parents.  Validation already evaluates every equation
    at every setting of its parents (`value_table`, all settings at once
    where the equation and its parents are all 0/1, one setting at a time
    otherwise), or, with no parents, once; those values are kept as one flat
    list per variable, indexed by the mixed-radix code of the parent values
    (`parents` gives them sorted, and the last varies fastest).

    Construction also builds the evaluation plan that `solve`, `lookup` and
    `table` read, so that none recomputes it per call: per variable, its
    parent slots in `parents` order (the parent, its domain's
    `Domain.positions` map, its domain size), its table and the table's bit
    column where `value_table` made one, and the slots and tables again in
    topological order.
    """

    def __init__(
        self,
        variables: Sequence[str],
        equations: Mapping[str, Expr],
        domains: Mapping[str, Domain] | None = None,
    ) -> None:
        self.variables: tuple[str, ...] = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ModelError(f"duplicate variable names: {self.variables}")
        if set(equations) != set(self.variables):
            missing = set(self.variables) - set(equations)
            extra = set(equations) - set(self.variables)
            raise ModelError(
                f"equations do not match variables (missing {sorted(missing)}, "
                f"extra {sorted(extra)})"
            )
        self.equations: dict[str, Expr] = {v: equations[v] for v in self.variables}
        full: dict[str, Domain] = {}
        domains = dict(domains or {})
        for var in self.variables:
            full[var] = domains.pop(var, BINARY)
        if domains:
            raise UnknownVariableError(
                f"domains declared for unknown variable(s): {sorted(domains)}"
            )
        self.domains: dict[str, Domain] = full
        self._parents: dict[str, tuple[str, ...]] = {
            v: tuple(sorted(expr.variables())) for v, expr in self.equations.items()
        }
        self._initial = frozenset(v for v in self.variables if not self._parents[v])
        self._validate_references()
        self._order = self._toposort()
        # the evaluation plan (see the class docstring); `_steps` holds
        # (variable, slots, table) in topological order
        slot: dict[str, Slot] = {
            v: (v, domain.positions, len(domain.values)) for v, domain in full.items()
        }
        self._plan: dict[str, Plan] = {
            v: (tuple(map(slot.__getitem__, self._parents[v])), *self._compile(v))
            for v in self.variables
        }
        self._steps = tuple([(v, *self._plan[v][:2]) for v in self._order])
        self._declared_order = self._order == self.variables
        # each variable's strict ancestors, filled as asked for; an initial
        # variable has none, and a plan's many initial pins need no walk each
        self._ancestor_sets: dict[str, frozenset[str]] = dict.fromkeys(
            self._initial, frozenset()
        )

    # -- construction helpers -------------------------------------------------

    def _validate_references(self) -> None:
        known = set(self.variables)
        for var, parents in self._parents.items():
            loose = set(parents) - known
            if loose:
                raise UnknownVariableError(
                    f"equation for {var!r} references unknown variable(s) {sorted(loose)}"
                )

    def _toposort(self) -> tuple[str, ...]:
        remaining = {v: set(self._parents[v]) for v in self.variables}
        order: list[str] = []
        placed: set[str] = set()
        while remaining:
            ready = [v for v in self.variables if v in remaining and remaining[v] <= placed]
            if not ready:
                raise CycleError(
                    f"dependency cycle among {sorted(remaining)}"
                )
            for var in ready:
                order.append(var)
                placed.add(var)
                del remaining[var]
        return tuple(order)

    def _compile(self, var: str) -> tuple[list[int], int | None]:
        """The value table of one equation, validated for totality, and its
        bit column or None."""
        expr = self.equations[var]
        parents = self._parents[var]
        index = self.domains[var].positions
        if parents:
            pools = [self.domains[p].values for p in parents]
            check_search_size(
                math.prod(map(len, pools)), lambda: f"equation for {var!r}", "parent settings"
            )
            table, values, bits = value_table(expr, parents, pools)
            if index.keys() >= values:
                return table, bits
            # Re-evaluate the first failing setting alone, for its error.
            combo = next(c for c, v in zip(itertools.product(*pools), table) if v not in index)
            env = dict(zip(parents, combo))
        else:
            # a one-row table is that one evaluation
            env = {}
        try:
            value = expr.evaluate(env)
        except EvaluationError as err:
            if "no true guard" in str(err):
                raise NonExhaustivePiecewiseError(
                    f"equation for {var!r} has no true guard at {env}"
                ) from err
            raise ModelError(
                f"equation for {var!r} fails at {env}: {err}"
            ) from err
        if not parents and value in index:
            return [value], None
        raise DomainError(
            f"equation for {var!r} yields {value} outside domain "
            f"{self.domains[var].values} at {env}"
        )

    # -- structure ------------------------------------------------------------

    def parents(self, var: str) -> tuple[str, ...]:
        """The variables the equation of `var` reads, sorted: the order of
        its value table's parent slots."""
        try:
            return self._parents[var]
        except KeyError:
            raise UnknownVariableError(f"unknown variable {var!r}") from None

    def topological_order(self) -> tuple[str, ...]:
        return self._order

    def ancestors(self, var: str) -> frozenset[str]:
        """Strict ancestors of one variable, walked up its parents on the
        first call and kept for the model's lifetime.  Several variables'
        ancestors are the union of each one's."""
        found = self._ancestor_sets.get(var)
        if found is None:
            seen: set[str] = set()
            frontier = [var]
            for node in frontier:
                for parent in self.parents(node):
                    if parent not in seen:
                        seen.add(parent)
                        frontier.append(parent)
            found = self._ancestor_sets[var] = frozenset(seen)
        return found

    def initial_variables(self) -> frozenset[str]:
        return self._initial

    def is_initial(self, var: str) -> bool:
        return not self.parents(var)

    def check_value(self, var: str, value: int) -> None:
        domain = self.domains.get(var)
        if domain is None:
            raise UnknownVariableError(f"unknown variable {var!r}")
        if value not in domain.positions:
            raise DomainError(f"value {value} outside domain {domain.values} of {var!r}")

    def table(self, var: str) -> Plan:
        """The plan entry of `var`: its parent slots, in `parents` order, its
        value table, indexed by the code they give, and the table's bit
        column (bit k set where row k holds 1) or None."""
        return self._plan[var]

    def lookup(self, var: str, values: Mapping[str, int]) -> int:
        """The equation of `var` at the parent values found in `values`, which
        must hold an in-domain value for every parent: its table read at the
        code its plan's parent slots give those values."""
        slots, table, _ = self._plan[var]
        code = 0
        for parent, index, radix in slots:
            code = code * radix + index[values[parent]]
        return table[code]

    # -- equality / hashing ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.equations == other.equations
            and self.domains == other.domains
        )

    def __repr__(self) -> str:
        return f"Model(variables={self.variables!r})"


@dataclass(frozen=True)
class Scenario:
    """A model with normality defaults, a solve mode, and intention pairs.

    Neither it nor its model may be mutated after construction: the actual
    world and the memoized search results are kept for its lifetime."""

    MODES: ClassVar[tuple[str, ...]] = ("reliable", "general")

    model: Model
    mode: str = "reliable"
    defaults: Mapping[str, int] = field(default_factory=dict)
    intentions: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in self.MODES:
            raise ModelError(f"unknown mode {self.mode!r}")
        full = {v: 0 for v in self.model.variables}
        for var, value in dict(self.defaults).items():
            if var not in full:
                raise UnknownVariableError(f"default declared for unknown variable {var!r}")
            self.model.check_value(var, value)
            full[var] = value
        object.__setattr__(self, "defaults", full)
        for intention, action in self.intentions:
            for var in (intention, action):
                if var not in self.model.domains:
                    raise UnknownVariableError(
                        f"intention pair names unknown variable {var!r}"
                    )
            if intention not in self.model.parents(action):
                raise ModelError(
                    f"intention variable {intention!r} is not a parent of {action!r}"
                )

    @cached_property
    def _actual(self) -> Assignment:
        return solve(self)

    @cached_property
    def _memo(self) -> dict[tuple, object]:
        # filled by `memoized`; not a field, so eq, repr and replace ignore it
        return {}

    def actual(self) -> Assignment:
        return dict(self._actual)

    def actual_value(self, var: str) -> int:
        if var not in self.model.domains:
            raise UnknownVariableError(f"unknown variable {var!r}")
        return self._actual[var]

    def check_actual(self, event: Event, role: str) -> None:
        """Raise unless `event` names a variable (UnknownVariableError), a
        value in its domain (DomainError) and its actual value
        (ActualityError); `role` names the event in the message."""
        self.model.check_value(event.var, event.value)
        actual = self._actual[event.var]
        if actual != event.value:
            raise ActualityError(
                f"{role} {event.render()} is not the actual value {actual}"
            )

    def roaming_vars(self, pinned: frozenset[str], effect_var: str) -> frozenset[str]:
        """The variables a search over backgrounds lets vary while the pins
        hold: the initial variables in reliable mode (derived ones follow
        their equations), every variable in general mode; never the pins or
        the effect."""
        if self.mode == "reliable":
            pool = self.model.initial_variables()
        else:
            pool = frozenset(self.model.variables)
        return pool - pinned - {effect_var}


def memoized(scenario: Scenario, compute: Callable[..., T], *args: Hashable) -> T:
    """`compute(scenario, *args)`, computed on the first call with these
    arguments and read from the scenario's memo afterwards.  Callers copy a
    mutable result before handing it out.  A call that raises stores nothing
    for itself; the complete answers of the calls inside it stay."""
    key = (compute, *args)
    memo = scenario._memo
    found = memo.get(key, memo)  # the memo itself is never an answer
    if found is memo:
        found = memo[key] = compute(scenario, *args)
    return found


def checked_solve(
    scenario: Scenario, pins: Mapping[str, int] | None = None
) -> Assignment:
    """`solve`, once every pin is checked to name a variable of the model at
    a value in its domain.  The package exports it as `actualcause.solve`."""
    pins = pins or {}
    for var, value in pins.items():
        scenario.model.check_value(var, value)
    return solve(scenario, pins)


def solve(scenario: Scenario, pins: Mapping[str, int] | None = None) -> Assignment:
    """Evaluate every variable: pinned ones take their pins, the rest read
    their value tables, walking the model's plan in topological order.  The
    result lists the variables in declaration order.

    The pins are not checked: each must name a variable of the model at a
    value in its domain.  The engine's searches pin only domain values and
    actual values, so they call this directly; pins from outside go through
    `checked_solve`."""
    model = scenario.model
    pins = pins or {}
    out: Assignment = {}
    for var, slots, table in model._steps:
        if var in pins:
            out[var] = pins[var]
        else:
            code = 0
            for parent, index, radix in slots:
                code = code * radix + index[out[parent]]
            out[var] = table[code]
    return out if model._declared_order else {v: out[v] for v in model.variables}


def check_search_size(size: int, space: Callable[[], str], unit: str) -> None:
    """Raise SearchTooLargeError, before anything is enumerated, when a
    search would try `size` (in `unit`) past ENUMERATION_CAP.  Every bounded
    search in the package checks here.  `space` names the search; it is
    called only to raise, so the error text costs nothing when it passes."""
    if size > ENUMERATION_CAP:
        raise SearchTooLargeError(f"{space()} has {size} {unit}, cap {ENUMERATION_CAP}")


def minimal_passing_sets(
    n: int, test: Callable[[int], int | None], space: Callable[[], str], unit: str
) -> list[int]:
    """The inclusion-minimal masks over n positions that pass, sorted by size
    then positions.  `test(mask)` returns None when the mask passes, and
    otherwise the positions outside it to grow it by.  Level k + 1 is every
    failing mask of level k grown by one of its positions, deduplicated and
    tested in ascending mask order, with supersets of passing masks skipped.
    Every minimal passing mask must be reached from the empty mask through
    failing masks, each grown by a position its test returned: sufficiency
    returns D(w), which every sufficient superset of the mask meets, and
    the comparator every position above the mask's highest, as a minimal
    contrast set's prefixes all fail.  The empty mask is tested before 2**n
    is checked against the cap."""
    first = test(0)
    if first is None:
        return [0]
    check_search_size(1 << n, space, unit)
    found: list[int] = []
    growing = {0: first}  # each failing mask of a level, and the positions it grows by
    while growing:
        level = sorted(
            {failed | 1 << i for failed, by in growing.items() for i in range(n) if by >> i & 1}
        )
        growing = {}
        for mask in level:
            if all(small & ~mask for small in found):
                grow = test(mask)
                if grow is None:
                    found.append(mask)
                else:
                    growing[mask] = grow
    return sort_masks(found, n)


def sort_masks(masks: Iterable[int], n: int) -> list[int]:
    """Masks over n positions, sorted by size then positions."""
    # of two masks of one size, the one holding their lowest differing position
    # comes first: there its complement's bits, read lowest first, show a "0"
    full = (1 << n) - 1
    return sorted(masks, key=lambda mask: (mask.bit_count(), f"{full ^ mask:0{n}b}"[::-1]))


# no engine caller: perfbench's tracer wraps it by name, and tests enumerate with it
def enumerate_settings(model: Model, variables: Iterable[str]) -> Iterator[Assignment]:
    """All assignments over the given variables, in deterministic order.

    Variables iterate in model declaration order; values in domain order.
    Raises SearchTooLargeError before yielding anything if the product of the
    domain sizes exceeds ENUMERATION_CAP.
    """
    wanted = set(variables)
    known = model.domains.keys()
    if not wanted <= known:
        raise UnknownVariableError(f"unknown variable(s) {sorted(wanted - known)}")
    ordered = [v for v in model.variables if v in wanted]
    pools = [model.domains[v].values for v in ordered]
    check_search_size(
        math.prod(map(len, pools)), lambda: f"assignment space over {ordered}", "settings"
    )
    for combo in itertools.product(*pools):
        yield dict(zip(ordered, combo))


# no engine caller: perfbench's tracer wraps it by name, and TestReduction checks
# `normality.Reduction` against it
def reduced_model(model: Model, removed: Mapping[str, int]) -> Model:
    """Drop the given variables, substituting their fixed values into every
    remaining equation.  Variables that lose all their parents become initial
    by derivation."""
    keep = [v for v in model.variables if v not in removed]
    equations = {v: substitute(model.equations[v], removed) for v in keep}
    domains = {v: model.domains[v] for v in keep}
    return Model(keep, equations, domains)
