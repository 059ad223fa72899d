"""Every name a module exports in `__all__` resolves, so `from actualcause
import *` works and no export outlives the name it refers to; the package's
public names are pinned, so adding or dropping one shows up here."""

from __future__ import annotations

import importlib
import pkgutil

import actualcause

PUBLIC_API = [
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


def test_every_exported_name_resolves():
    modules = [actualcause] + [
        importlib.import_module(f"actualcause.{info.name}")
        for info in pkgutil.iter_modules(actualcause.__path__)
    ]
    for module in modules:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_star_import():
    namespace: dict[str, object] = {}
    exec("from actualcause import *", namespace)
    assert set(actualcause.__all__) <= set(namespace)


def test_public_api_is_pinned():
    assert actualcause.__all__ == PUBLIC_API
