"""The actual-cause engine: certification plus causal-chain continuity.

An event C=c is reported as an actual cause of E=e when

1. C belongs to some minimal sufficient plan for E=e,
2. that plan admits an abnormality witness breaking E=e, certifying C
   (either a witness flips C, or C sits at its default value while the plan
   has some passing witness), and
3. some direct-cause chain from C to E has every intermediate vertex
   certified the same way.

The variant screen ("3prime") restricts witnesses to those flipping exactly
the candidate, with no default clause.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from .model import (
    ENUMERATION_CAP,
    Event,
    ModelError,
    Scenario,
)
from .normality import AbnormalityWitness, PlanAbnormality, plan_abnormality
from .sufficiency import (
    ActualityError,
    SufficiencyWitness,
    direct_cause_parents,
    minimal_sufficient_sets,
)

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
    """Engine configuration.  The defaults are the shipped semantics."""

    mode: str | None = None  # None follows the scenario's own mode
    abnormality_variant: str = "3"  # "3" | "3prime"
    apply_intentional_rule: bool = True
    continuity: str = "plan-membership"  # | "chain-certified"
    enumeration_cap: int = ENUMERATION_CAP

    def __post_init__(self) -> None:
        if self.mode not in (None, "reliable", "general"):
            raise ModelError(f"unknown mode {self.mode!r}")
        if self.abnormality_variant not in ("3", "3prime"):
            raise ModelError(
                f"unknown abnormality variant {self.abnormality_variant!r}"
            )
        if self.continuity not in ("chain-certified", "plan-membership"):
            raise ModelError(f"unknown continuity rule {self.continuity!r}")


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


@dataclass(frozen=True)
class _PlanRecord:
    witness: SufficiencyWitness
    abnormality: PlanAbnormality
    # per-variable certification under the active variant
    certified: frozenset[str]
    single_witnesses: Mapping[str, AbnormalityWitness] | None = None


class ScenarioAnalysis:
    """The verdicts for one (scenario, effect, options) triple; the searches
    behind them are memoized on the scenario and shared across options."""

    def __init__(
        self,
        scenario: Scenario,
        effect: Event,
        options: EngineOptions,
    ) -> None:
        self.scenario = scenario
        self.effect = effect
        self.options = options
        cap = options.enumeration_cap
        self.sufficiency: list[SufficiencyWitness] = minimal_sufficient_sets(
            scenario, effect, cap
        )
        self.plans: list[_PlanRecord] = []
        for witness in self.sufficiency:
            plan_vars = witness.plan.pinned_vars()
            base = plan_abnormality(scenario, plan_vars, effect, cap=cap)
            if options.abnormality_variant == "3prime":
                singles: dict[str, AbnormalityWitness] = {}
                certified: set[str] = set()
                for var in sorted(plan_vars):
                    narrow = plan_abnormality(
                        scenario,
                        plan_vars,
                        effect,
                        variant="single-event",
                        focus=var,
                        cap=cap,
                    )
                    if narrow.passed:
                        certified.add(var)
                        if narrow.witness is not None:
                            singles[var] = narrow.witness
                record = _PlanRecord(
                    witness=witness,
                    abnormality=base,
                    certified=frozenset(certified),
                    single_witnesses=singles,
                )
            else:
                record = _PlanRecord(
                    witness=witness,
                    abnormality=base,
                    certified=base.certified if base.passed else frozenset(),
                )
            self.plans.append(record)
        self.certified: dict[str, _PlanRecord] = {}
        for record in self.plans:
            for var in record.certified:
                self.certified.setdefault(var, record)

    # -- chains ---------------------------------------------------------------

    def chain_for(self, var: str) -> tuple[str, ...] | None:
        """Shortest (then lexicographically first) direct-cause chain from
        var to the effect whose intermediate vertices all satisfy the active
        continuity rule.

        A breadth-first search backward from the effect gives each vertex its
        edge count to the effect over admissible vertices; the chain then
        walks from var, each step taking the smallest vertex one edge closer.
        Only the effect and its ancestors are visited."""
        goal = self.effect.var
        if var == goal:
            return (var,)
        cap = self.options.enumeration_cap

        def admissible(vertex: str) -> bool:
            if self.options.continuity == "chain-certified":
                return vertex in self.certified
            return self._member_of_passing_plan(var, vertex)

        dist: dict[str, int] = {goal: 0}
        parents: dict[str, frozenset[str]] = {}
        frontier = [goal]
        while frontier and var not in dist:
            layer: list[str] = []
            for vertex in frontier:
                parents[vertex] = direct_cause_parents(self.scenario, vertex, cap)
                for parent in parents[vertex]:
                    if parent not in dist and (parent == var or admissible(parent)):
                        dist[parent] = dist[vertex] + 1
                        layer.append(parent)
            frontier = layer
        if var not in dist:
            return None
        path = [var]
        while path[-1] != goal:
            here = path[-1]
            path.append(
                min(
                    vertex
                    for vertex, near in parents.items()
                    if here in near and dist[vertex] == dist[here] - 1
                )
            )
        return tuple(path)

    def _member_of_passing_plan(self, cause_var: str, vertex: str) -> bool:
        """Plan-membership continuity: the cause belongs to some minimal
        sufficient, abnormality-passing plan for the intermediate vertex."""
        target = Event(vertex, self.scenario.actual_value(vertex))
        cap = self.options.enumeration_cap
        for witness in minimal_sufficient_sets(self.scenario, target, cap):
            plan_vars = witness.plan.pinned_vars()
            if cause_var in plan_vars and plan_abnormality(
                self.scenario, plan_vars, target, cap=cap
            ).passed:
                return True
        return False

    # -- verdicts ---------------------------------------------------------------

    def verdict_for(self, cause: Event) -> CauseVerdict:
        actual = self.scenario.actual_value(cause.var)
        if actual != cause.value:
            raise ActualityError(
                f"candidate {cause.render()} is not the actual value {actual}"
            )
        record = self.certified.get(cause.var)
        if record is None:
            return CauseVerdict(
                cause=cause,
                effect=self.effect,
                is_cause=False,
                reason="no passing plan certifies the event",
            )
        chain = self.chain_for(cause.var)
        if chain is None:
            return CauseVerdict(
                cause=cause,
                effect=self.effect,
                is_cause=False,
                plan=record.witness.plan.value_set,
                witness=self._witness_for(record, cause.var),
                reason="certified, but no certified chain reaches the effect",
            )
        return CauseVerdict(
            cause=cause,
            effect=self.effect,
            is_cause=True,
            plan=record.witness.plan.value_set,
            witness=self._witness_for(record, cause.var),
            chain=chain,
            reason="certified with chain " + " -> ".join(chain),
        )

    @staticmethod
    def _witness_for(record: _PlanRecord, var: str) -> AbnormalityWitness | None:
        if record.single_witnesses is not None:
            return record.single_witnesses.get(var, record.abnormality.witness)
        return record.abnormality.witness


def _effective(scenario: Scenario, options: EngineOptions) -> Scenario:
    if options.mode is None or options.mode == scenario.mode:
        return scenario
    return replace(scenario, mode=options.mode)


def analyze(
    scenario: Scenario,
    effect: Event,
    options: EngineOptions = DEFAULT_OPTIONS,
) -> ScenarioAnalysis:
    scenario = _effective(scenario, options)
    if scenario.actual_value(effect.var) != effect.value:
        raise ActualityError(
            f"effect {effect.render()} is not the actual value "
            f"{scenario.actual_value(effect.var)}"
        )
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
    """All actual causes of the effect, before the intention rule."""
    analysis = analyze(scenario, effect, options)
    found: set[Event] = set()
    for var in analysis.scenario.model.variables:
        if var == effect.var:
            continue
        candidate = Event(var, analysis.scenario.actual_value(var))
        if analysis.verdict_for(candidate).is_cause:
            found.add(candidate)
    return frozenset(found)


def intentional_causes(
    scenario: Scenario,
    effect: Event,
    options: EngineOptions = DEFAULT_OPTIONS,
) -> frozenset[Event]:
    """causes_of with each declared intention pair treated as one composite:
    both members are reported when the composite exists (both off-default)
    and both are raw causes; otherwise neither is."""
    raw = causes_of(scenario, effect, options)
    if not options.apply_intentional_rule:
        return raw
    scenario = _effective(scenario, options)
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
