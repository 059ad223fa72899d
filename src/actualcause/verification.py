"""Randomized verification suites: engine vs oracle (primary definition,
sufficient sets in general mode and contrastive comparator), net-operation
claims, partial-order axioms, and format round-trips.

Reports are deterministic for a given configuration (no wall times inside
the rendered text), so the same seed always produces byte-identical output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .comparators import hph_causes
from .dsl import BenchCase, parse_case, parse_expression, render_model, serialize_case
from .engine import EngineOptions, causes_of
from .model import Event, Scenario, render_events
from .normality import OrderResult, compare
from .oracle import (
    oracle_causes_of,
    oracle_direct_cause_sets,
    oracle_hph_vars,
    oracle_minimal_sufficient_sets,
)
from .randmodel import random_effect, random_scenario, scenario_stream
from .reasoning import (
    NoChainError,
    ReasoningError,
    cause_nets,
    distance,
    extrapolate,
    flank,
    interpolate,
)
from .sufficiency import direct_cause_sets, minimal_sufficient_sets

__all__ = ["VerifyReport", "run_verify"]

_NET_LIMIT = 60  # nets examined per scenario in the operation suite


@dataclass
class Section:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class VerifyReport:
    seed: int
    models: int
    max_vars: int
    sections: list[Section] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(section.passed for section in self.sections)

    def render(self) -> str:
        lines = [
            f"verification: models={self.models} seed={self.seed} "
            f"max-vars={self.max_vars}",
            "",
        ]
        for section in self.sections:
            status = "ok" if section.passed else "FAIL"
            lines.append(
                f"[{status}] {section.name}: {section.checked} checks, "
                f"{len(section.failures)} failures"
            )
            for failure in section.failures[:20]:
                lines.append(f"    {failure}")
            if len(section.failures) > 20:
                lines.append(
                    f"    ... {len(section.failures) - 20} more"
                )
        lines.append("")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def _describe(scenario: Scenario) -> str:
    formulas, domains = render_model(scenario.model)
    return f"{formulas} [{domains}]" if domains else formulas


def run_verify(
    models: int = 1000,
    seed: int = 0,
    max_vars: int = 6,
) -> VerifyReport:
    report = VerifyReport(seed=seed, models=models, max_vars=max_vars)
    report.sections.append(_oracle_section(models, seed, max_vars))
    report.sections.append(_general_sufficiency_section(models, seed, max_vars))
    report.sections.append(_comparator_section(models, seed, max_vars))
    report.sections.append(_variant_section(max(models // 2, 0), seed, max_vars))
    ops_total = max(models // 2, 0)
    report.sections.extend(_operations_sections(ops_total, seed, max_vars))
    report.sections.append(_order_section(seed, max_vars, pairs=10_000 if models else 0))
    report.sections.append(_roundtrip_section(models, seed, max_vars))
    return report


def _oracle_section(models: int, seed: int, max_vars: int) -> Section:
    section = Section("engine vs oracle (sufficient sets, direct causes, causes)")
    options = EngineOptions()
    for index, scenario in scenario_stream(seed, models, max_vars):
        tag = f"seed={seed}/{index}"
        effect = random_effect(scenario)
        mine = minimal_sufficient_sets(scenario, effect)
        reference = oracle_minimal_sufficient_sets(scenario, effect)
        section.checked += 1
        if mine != reference:
            section.failures.append(
                f"{tag} minimal sufficient sets differ for {effect.render()} "
                f"on {_describe(scenario)}"
            )
            continue
        model = scenario.model
        ok = True
        for var in model.variables:
            if model.is_initial(var):
                continue
            target = Event(var, scenario.actual_value(var))
            section.checked += 1
            if direct_cause_sets(scenario, target) != oracle_direct_cause_sets(
                scenario, target
            ):
                section.failures.append(
                    f"{tag} direct-cause sets differ for {target.render()} "
                    f"on {_describe(scenario)}"
                )
                ok = False
                break
        if not ok:
            continue
        section.checked += 1
        if causes_of(scenario, effect, options) != oracle_causes_of(scenario, effect):
            section.failures.append(
                f"{tag} causes differ for {effect.render()} on "
                f"{_describe(scenario)}"
            )
    return section


def _general_sufficiency_section(models: int, seed: int, max_vars: int) -> Section:
    # The section above runs in reliable mode, where a top-level effect
    # mostly has derived ancestors and so solves worlds; in general mode
    # every query reads the effect's value table.
    section = Section("engine vs oracle (sufficient sets, general mode)")
    for index, scenario in scenario_stream(seed + 404, models, max_vars, mode="general"):
        effect = random_effect(scenario)
        section.checked += 1
        if minimal_sufficient_sets(scenario, effect) != oracle_minimal_sufficient_sets(
            scenario, effect
        ):
            section.failures.append(
                f"seed={seed + 404}/{index} minimal sufficient sets differ for "
                f"{effect.render()} on {_describe(scenario)}"
            )
    return section


def _comparator_section(models: int, seed: int, max_vars: int) -> Section:
    section = Section("engine vs oracle (contrastive comparator)")
    for index, scenario in scenario_stream(seed, models, max_vars):
        effect = random_effect(scenario)
        section.checked += 1
        mine = hph_causes(scenario, effect).vars()
        reference = oracle_hph_vars(scenario, effect)
        if mine != reference:
            section.failures.append(
                f"seed={seed}/{index} contrastive causes {sorted(mine)} != "
                f"{sorted(reference)} for {effect.render()} on "
                f"{_describe(scenario)}"
            )
    return section


def _variant_section(models: int, seed: int, max_vars: int) -> Section:
    section = Section("single-event variant is a restriction of the set-level screen")
    narrow_options = EngineOptions(abnormality_variant="3prime")
    for index, scenario in scenario_stream(seed + 101, models, max_vars):
        tag = f"seed={seed + 101}/{index}"
        effect = random_effect(scenario)
        broad = causes_of(scenario, effect)
        narrow = causes_of(scenario, effect, narrow_options)
        section.checked += 1
        if not narrow <= broad:
            section.failures.append(
                f"{tag} variant causes {render_events(narrow)} exceed "
                f"{render_events(broad)} on {_describe(scenario)}"
            )
    return section


def _operations_sections(models: int, seed: int, max_vars: int) -> list[Section]:
    sufficiency = Section("net operations: outputs are sufficient")
    interp = Section("interpolation never increases distance")
    extrap = Section("extrapolation never decreases distance")
    for index, scenario in scenario_stream(seed + 202, models, max_vars):
        tag = f"seed={seed + 202}/{index}"
        effect = random_effect(scenario)
        if scenario.model.is_initial(effect.var):
            continue
        nets = cause_nets(scenario, effect)[:_NET_LIMIT]
        for net in nets:
            base = distance(scenario, net, effect)
            for member in sorted(net.events):
                for name, operation in (
                    ("interpolate", interpolate),
                    ("extrapolate", extrapolate),
                    ("flank", flank),
                ):
                    sufficiency.checked += 1
                    try:
                        result = operation(scenario, net, member, effect)
                    except ReasoningError as err:
                        sufficiency.failures.append(
                            f"{tag} {name}({render_events(net.events)}, "
                            f"{member.render()}): {err} on {_describe(scenario)}"
                        )
                        continue
                    if name == "interpolate":
                        interp.checked += 1
                        after = distance(scenario, result, effect)
                        if after > base + 1e-9:
                            interp.failures.append(
                                f"{tag} distance rose {base:g} -> {after:g} "
                                f"interpolating {member.render()} out of "
                                f"{render_events(net.events)} on "
                                f"{_describe(scenario)}"
                            )
                    elif name == "extrapolate":
                        extrap.checked += 1
                        try:
                            after = distance(scenario, result, effect)
                        except NoChainError as err:
                            extrap.failures.append(
                                f"{tag} distance undefined after "
                                f"extrapolating {member.render()} out of "
                                f"{render_events(net.events)}: {err} on "
                                f"{_describe(scenario)}"
                            )
                            continue
                        if after < base - 1e-9:
                            extrap.failures.append(
                                f"{tag} distance fell {base:g} -> {after:g} "
                                f"extrapolating {member.render()} out of "
                                f"{render_events(net.events)} on "
                                f"{_describe(scenario)}"
                            )
    return [sufficiency, interp, extrap]


def _order_section(seed: int, max_vars: int, pairs: int) -> Section:
    section = Section("assignment comparison is a partial order")
    if not pairs:
        return section
    rng = random.Random(f"{seed}:order")
    produced = 0
    while produced < pairs:
        scenario = random_scenario(rng, max_vars=max_vars)
        model = scenario.model
        for _ in range(20):
            if produced >= pairs:
                break
            first = {
                v: rng.choice(model.domains[v].values) for v in model.variables
            }
            second = {
                v: rng.choice(model.domains[v].values) for v in model.variables
            }
            produced += 1
            section.checked += 1
            ab = compare(scenario, first, second)
            ba = compare(scenario, second, first)
            flipped = {
                OrderResult.EQUAL: OrderResult.EQUAL,
                OrderResult.INCOMPARABLE: OrderResult.INCOMPARABLE,
                OrderResult.GREATER_OR_EQUAL: OrderResult.LESS_OR_EQUAL,
                OrderResult.LESS_OR_EQUAL: OrderResult.GREATER_OR_EQUAL,
            }
            if ba is not flipped[ab]:
                section.failures.append(
                    f"antisymmetry: {ab.value} vs {ba.value} on "
                    f"{_describe(scenario)}"
                )
            if compare(scenario, first, first) is not OrderResult.EQUAL:
                section.failures.append(
                    f"reflexivity failed on {_describe(scenario)}"
                )
            third = {
                v: rng.choice(model.domains[v].values) for v in model.variables
            }
            bc = compare(scenario, second, third)
            if (
                ab in (OrderResult.GREATER_OR_EQUAL, OrderResult.EQUAL)
                and bc in (OrderResult.GREATER_OR_EQUAL, OrderResult.EQUAL)
            ):
                ac = compare(scenario, first, third)
                if ac not in (OrderResult.GREATER_OR_EQUAL, OrderResult.EQUAL):
                    section.failures.append(
                        f"transitivity: {ab.value},{bc.value} but {ac.value} "
                        f"on {_describe(scenario)}"
                    )
    return section


def _roundtrip_section(models: int, seed: int, max_vars: int) -> Section:
    section = Section("expression and case round-trips")
    for index, scenario in scenario_stream(seed + 303, models, max_vars):
        tag = f"seed={seed + 303}/{index}"
        model = scenario.model
        section.checked += 1
        bad = False
        for var in model.variables:
            expr = model.equations[var]
            if parse_expression(expr.render()) != expr:
                section.failures.append(
                    f"{tag} expression round-trip failed for "
                    f"{var}={expr.render()}"
                )
                bad = True
                break
        if bad:
            continue
        effect = random_effect(scenario)
        case = BenchCase(
            id=f"random-{index}",
            source="random",
            scenario=scenario,
            effect=effect,
            intuition=None,
        )
        text = serialize_case(case)
        section.checked += 1
        try:
            again = parse_case(text)
        except Exception as err:
            section.failures.append(f"{tag} case reparse failed: {err}")
            continue
        same = (
            again.scenario.model == model
            and again.scenario.defaults == scenario.defaults
            and again.scenario.mode == scenario.mode
            and again.effect == effect
            and serialize_case(again) == text
        )
        if not same:
            section.failures.append(
                f"{tag} case round-trip changed content for "
                f"{_describe(scenario)}"
            )
    return section
