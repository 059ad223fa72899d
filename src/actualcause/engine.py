"""The actual-cause engine: certification plus a causal chain.

An event C=c is reported as an actual cause of E=e when

1. C belongs to some minimal sufficient plan for E=e,
2. that plan admits an abnormality witness breaking E=e, certifying C
   (either a witness flips C, or C sits at its default value while the plan
   has some passing witness), and
3. some direct-cause chain from C to E has C in a minimal sufficient,
   abnormality-passing plan for each intermediate vertex.

The variant screen ("3prime") restricts witnesses to those flipping exactly
the candidate, with no default clause; it reads the single-flip witnesses
recorded by the same per-plan search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .model import Event, ModelError, Scenario
from .normality import AbnormalityWitness, plan_abnormality
from .sufficiency import direct_cause_parents, minimal_sufficient_sets

__all__ = [
    "CauseVerdict",
    "DEFAULT_OPTIONS",
    "EngineOptions",
    "ScenarioAnalysis",
    "analyze",
    "causes_of",
    "intentional_causes",
    "is_actual_cause",
]


@dataclass(frozen=True)
class EngineOptions:
    """Engine configuration.  The default is the shipped semantics."""

    VARIANTS: ClassVar[tuple[str, ...]] = ("3", "3prime")

    abnormality_variant: str = "3"

    def __post_init__(self) -> None:
        if self.abnormality_variant not in self.VARIANTS:
            raise ModelError(
                f"unknown abnormality variant {self.abnormality_variant!r}"
            )


DEFAULT_OPTIONS = EngineOptions()


@dataclass(frozen=True)
class CauseVerdict:
    cause: Event
    effect: Event
    is_cause: bool
    plan: frozenset[Event] | None = None
    witness: AbnormalityWitness | None = None
    chain: tuple[str, ...] | None = None
    reason: str = ""


class ScenarioAnalysis:
    """The verdicts for one (scenario, effect) pair under one abnormality
    variant; the searches behind them are memoized on the scenario and
    shared across variants."""

    def __init__(
        self,
        scenario: Scenario,
        effect: Event,
        options: EngineOptions,
    ) -> None:
        self.scenario = scenario
        self.effect = effect
        # each variable the active variant certifies -> its first certifying
        # plan and that plan's witness for it
        self.certified: dict[str, tuple[frozenset[Event], AbnormalityWitness]] = {}
        for events in minimal_sufficient_sets(scenario, effect):
            result = plan_abnormality(scenario, {ev.var for ev in events}, effect)
            if options.abnormality_variant == "3prime":
                witnesses = result.single_flips
            else:
                witnesses = ((var, result.witness) for var in result.certified)
            for var, witness in witnesses:
                self.certified.setdefault(var, (events, witness))

    # -- chains ---------------------------------------------------------------

    def chain_for(self, var: str) -> tuple[str, ...] | None:
        """Shortest (then lexicographically first) direct-cause chain from
        var to the effect whose intermediate vertices all have var in some
        passing plan (`_member_of_passing_plan`).

        A breadth-first search backward from the effect gives each vertex its
        edge count to the effect over admissible vertices; the chain then
        walks from var, each step taking the smallest vertex one edge closer.
        Only the effect and its ancestors are visited."""
        goal = self.effect.var
        dist: dict[str, int] = {goal: 0}
        onward: dict[str, str] = {}  # each vertex's smallest neighbour one edge closer
        frontier = [goal]
        while frontier and var not in dist:
            layer: list[str] = []
            for vertex in frontier:
                for parent in direct_cause_parents(self.scenario, vertex):
                    if parent not in dist and (
                        parent == var or self._member_of_passing_plan(var, parent)
                    ):
                        dist[parent] = dist[vertex] + 1
                        layer.append(parent)
                    if dist.get(parent) == dist[vertex] + 1:
                        onward[parent] = min(onward.get(parent, vertex), vertex)
            frontier = layer
        if var not in dist:
            return None
        path = [var]
        while path[-1] != goal:
            path.append(onward[path[-1]])
        return tuple(path)

    def _member_of_passing_plan(self, cause_var: str, vertex: str) -> bool:
        """The chain rule: the cause belongs to some minimal sufficient,
        abnormality-passing plan for the intermediate vertex.  Every plan
        member is an ancestor of the vertex, so a vertex that does not
        descend from the cause is rejected before its plans are computed."""
        if cause_var not in self.scenario.model.ancestors(vertex):
            return False
        target = Event(vertex, self.scenario.actual_value(vertex))
        for events in minimal_sufficient_sets(self.scenario, target):
            plan_vars = frozenset(ev.var for ev in events)
            if cause_var in plan_vars and plan_abnormality(
                self.scenario, plan_vars, target
            ).passed:
                return True
        return False

    # -- verdicts ---------------------------------------------------------------

    def verdict_for(self, cause: Event) -> CauseVerdict:
        """The verdict on `cause`, which must be at its actual value, with its
        receipts: the first plan certifying it and that plan's witness, and
        the chain that links it to the effect.  It is a cause exactly when
        that chain exists."""
        self.scenario.check_actual(cause, "candidate")
        plan = witness = chain = None
        if cause.var not in self.certified:
            reason = "no passing plan certifies the event"
        else:
            plan, witness = self.certified[cause.var]
            chain = self.chain_for(cause.var)
            if chain is None:
                reason = "certified, but no certified chain reaches the effect"
            else:
                reason = "certified with chain " + " -> ".join(chain)
        return CauseVerdict(
            cause=cause,
            effect=self.effect,
            is_cause=chain is not None,
            plan=plan,
            witness=witness,
            chain=chain,
            reason=reason,
        )


def analyze(
    scenario: Scenario,
    effect: Event,
    options: EngineOptions = DEFAULT_OPTIONS,
) -> ScenarioAnalysis:
    scenario.check_actual(effect, "effect")
    return ScenarioAnalysis(scenario, effect, options)


def is_actual_cause(
    scenario: Scenario,
    cause: Event,
    effect: Event,
    options: EngineOptions = DEFAULT_OPTIONS,
) -> CauseVerdict:
    if cause.var == effect.var:
        raise ModelError("an event cannot be its own cause")
    return analyze(scenario, effect, options).verdict_for(cause)


def causes_of(
    scenario: Scenario,
    effect: Event,
    options: EngineOptions = DEFAULT_OPTIONS,
) -> frozenset[Event]:
    """All actual causes of the effect, before the intention rule: the
    certified variables, in model order, that a chain links to the effect."""
    analysis = analyze(scenario, effect, options)
    return frozenset(
        Event(var, scenario.actual_value(var))
        for var in scenario.model.variables
        if var in analysis.certified and analysis.chain_for(var) is not None
    )


def intentional_causes(
    scenario: Scenario,
    effect: Event,
    options: EngineOptions = DEFAULT_OPTIONS,
) -> frozenset[Event]:
    """causes_of with each declared intention pair treated as one composite:
    both members are reported when the composite exists (both off-default)
    and both are raw causes; otherwise neither is."""
    raw = causes_of(scenario, effect, options)
    reported = set(raw)
    for intention_var, action_var in scenario.intentions:
        if effect.var in (intention_var, action_var):
            continue
        intention = Event(intention_var, scenario.actual_value(intention_var))
        action = Event(action_var, scenario.actual_value(action_var))
        exists = (
            scenario.actual_value(intention_var) != scenario.defaults[intention_var]
            and scenario.actual_value(action_var) != scenario.defaults[action_var]
        )
        if exists and intention in raw and action in raw:
            continue
        reported.discard(intention)
        reported.discard(action)
    return frozenset(reported)
