"""Actual causation over deterministic structural causal models.

The package determines which events actually caused an outcome in a
fully specified, acyclic model with finite integer domains.  The main
entry points are :func:`causes_of` / :func:`intentional_causes` for the
primary definition, :func:`hph_causes` for the contrastive comparator,
and the cause-net reasoning operations (:func:`interpolate`,
:func:`extrapolate`, :func:`flank`, :func:`distance`).
"""

from __future__ import annotations

from .comparators import HPHResult, HPHVerdict, HPHWitness, hph_causes
from .dsl import BenchCase, ParseError, parse_case, parse_expression, serialize_case
from .engine import (
    CauseVerdict,
    DEFAULT_OPTIONS,
    EngineOptions,
    ScenarioAnalysis,
    analyze,
    causes_of,
    intentional_causes,
    is_actual_cause,
)
from .expr import (
    Binary,
    Const,
    EvaluationError,
    Expr,
    Not,
    Piecewise,
    Var,
    substitute,
)
from .model import (
    ENUMERATION_CAP,
    ActualityError,
    Assignment,
    CycleError,
    Domain,
    DomainError,
    Event,
    Model,
    ModelError,
    NonExhaustivePiecewiseError,
    Scenario,
    SearchTooLargeError,
    UnknownVariableError,
    enumerate_settings,
    event_set,
    render_events,
)
from .model import checked_solve as solve
from .normality import (
    AbnormalityWitness,
    OrderResult,
    PlanAbnormality,
    Rank,
    compare,
    plan_abnormality,
    rank,
)
from .reasoning import (
    CauseNet,
    NoChainError,
    ReasoningError,
    cause_nets,
    distance,
    extrapolate,
    flank,
    interpolate,
)
from .sufficiency import (
    NoParentsError,
    direct_cause_graph,
    direct_cause_sets,
    is_sufficient,
    minimal_sufficient_sets,
)

__all__ = [
    "AbnormalityWitness",
    "ActualityError",
    "Assignment",
    "BenchCase",
    "Binary",
    "CauseNet",
    "CauseVerdict",
    "Const",
    "CycleError",
    "DEFAULT_OPTIONS",
    "Domain",
    "DomainError",
    "ENUMERATION_CAP",
    "EngineOptions",
    "EvaluationError",
    "Event",
    "Expr",
    "HPHResult",
    "HPHVerdict",
    "HPHWitness",
    "Model",
    "ModelError",
    "NoChainError",
    "NoParentsError",
    "NonExhaustivePiecewiseError",
    "Not",
    "OrderResult",
    "ParseError",
    "Piecewise",
    "PlanAbnormality",
    "Rank",
    "ReasoningError",
    "Scenario",
    "ScenarioAnalysis",
    "SearchTooLargeError",
    "UnknownVariableError",
    "Var",
    "analyze",
    "cause_nets",
    "causes_of",
    "compare",
    "direct_cause_graph",
    "direct_cause_sets",
    "distance",
    "enumerate_settings",
    "event_set",
    "extrapolate",
    "flank",
    "hph_causes",
    "intentional_causes",
    "interpolate",
    "is_actual_cause",
    "is_sufficient",
    "minimal_sufficient_sets",
    "parse_case",
    "parse_expression",
    "plan_abnormality",
    "rank",
    "render_events",
    "serialize_case",
    "solve",
    "substitute",
]
