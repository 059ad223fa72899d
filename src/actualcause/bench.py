"""Benchmark runner over a directory of case files.

The rendered reports are deterministic: event sets are sorted and wall
times never appear in the output, so identical inputs produce identical
bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

from .comparators import HPHVerdict, hph_causes
from .dsl import BenchCase, read_case
from .engine import intentional_causes
from .model import Event, SearchTooLargeError

__all__ = ["BenchReport", "CaseResult", "FORMATS", "render_report", "run_bench"]


@dataclass(frozen=True)
class CaseResult:
    case: BenchCase
    primary: frozenset[Event]
    contrastive: frozenset[Event]
    contrastive_verdicts: tuple[HPHVerdict, ...]

    @property
    def primary_match(self) -> bool | None:
        if self.case.intuition is None:
            return None
        return self.primary == self.case.intuition

    @property
    def contrastive_raw_match(self) -> bool | None:
        if self.case.intuition is None:
            return None
        return self.contrastive == self.case.intuition

    @property
    def contrastive_adjusted_match(self) -> bool | None:
        """Match after dropping at-default events from the intuition on
        omission-flagged cases."""
        if self.case.intuition is None:
            return None
        wanted = self.case.intuition
        if self.case.omission_flag:
            scenario = self.case.scenario
            wanted = frozenset(
                ev for ev in wanted if ev.value != scenario.defaults[ev.var]
            )
        return self.contrastive == wanted

    @property
    def recorded_contrastive(self) -> frozenset[Event] | None:
        """The recorded contrastive column: the dedicated cell when present,
        otherwise the intuition cell (a blank cell records agreement)."""
        if self.case.expected_hph is not None:
            return self.case.expected_hph
        return self.case.intuition

    @property
    def printed_deviation(self) -> bool:
        """Does the computed contrastive set differ from the recorded one?"""
        recorded = self.recorded_contrastive
        if recorded is None:
            return bool(self.contrastive)
        return self.contrastive != recorded


@dataclass(frozen=True)
class BenchReport:
    results: tuple[CaseResult, ...]

    @property
    def primary_mismatches(self) -> list[CaseResult]:
        return [r for r in self.results if r.primary_match is False]

    @property
    def contrastive_raw_mismatches(self) -> list[CaseResult]:
        return [r for r in self.results if r.contrastive_raw_match is False]

    @property
    def contrastive_adjusted_mismatches(self) -> list[CaseResult]:
        return [r for r in self.results if r.contrastive_adjusted_match is False]


def run_bench(directory: str | Path) -> BenchReport:
    """Parse and evaluate every ``*.case`` file under the directory, in
    filename order.  A parse failure or a search too large aborts the run
    naming the file."""
    root = Path(directory)
    results: list[CaseResult] = []
    for path in sorted(root.glob("*.case")):
        case = read_case(path)
        try:
            primary = intentional_causes(case.scenario, case.effect)
            contrastive = hph_causes(case.scenario, case.effect)
        except SearchTooLargeError as err:
            raise SearchTooLargeError(f"{path.name}: {err}") from err
        results.append(
            CaseResult(
                case=case,
                primary=primary,
                contrastive=contrastive.events,
                contrastive_verdicts=contrastive.verdicts,
            )
        )
    return BenchReport(results=tuple(results))


def _set_text(events: frozenset[Event] | None, sep: str = ",") -> str:
    if events is None:
        return "-"
    if not events:
        return "{}"
    return sep.join(ev.render() for ev in sorted(events))


def _flag(value: bool | None) -> str:
    if value is None:
        return "-"
    return "yes" if value else "NO"


def render_report(report: BenchReport, fmt: str = "plain") -> str:
    if fmt not in FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    return FORMATS[fmt](report)


def _rows(report: BenchReport) -> list[dict[str, str]]:
    rows = []
    for result in report.results:
        case = result.case
        rows.append(
            {
                "case": case.id,
                "source": case.source,
                "effect": case.effect.render(),
                "causes": _set_text(result.primary),
                "intuition": _set_text(case.intuition),
                "match": _flag(result.primary_match),
                "contrastive": _set_text(result.contrastive),
                "recorded_contrastive": _set_text(case.expected_hph),
                "recorded_alternative": _set_text(case.expected_weslake),
                "contrastive_match": _flag(result.contrastive_raw_match),
                "omission_flag": "yes" if case.omission_flag else "",
            }
        )
    return rows


def _summary(report: BenchReport) -> dict[str, int]:
    return {
        "cases": len(report.results),
        "primary_mismatches": len(report.primary_mismatches),
        "contrastive_raw_mismatches": len(report.contrastive_raw_mismatches),
        "contrastive_adjusted_mismatches": len(
            report.contrastive_adjusted_mismatches
        ),
    }


def _render_json(report: BenchReport) -> str:
    payload = {"summary": _summary(report), "cases": _rows(report)}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render_csv(report: BenchReport) -> str:
    rows = _rows(report)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]) if rows else ["case"])
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _render_markdown(report: BenchReport) -> str:
    rows = _rows(report)
    summary = _summary(report)
    lines = [
        "# Benchmark",
        "",
        f"- cases: {summary['cases']}",
        f"- primary mismatches vs intuition: {summary['primary_mismatches']}",
        "- contrastive mismatches vs intuition: "
        f"{summary['contrastive_raw_mismatches']} raw, "
        f"{summary['contrastive_adjusted_mismatches']} after omission "
        "adjustment",
        "",
        "| case | source | causes | intuition | match | contrastive | "
        "recorded | alt recorded | match |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for row in rows:
        lines.append(
            "| {case} | {source} | {causes} | {intuition} | {match} | "
            "{contrastive} | {recorded_contrastive} | "
            "{recorded_alternative} | {contrastive_match} |".format(**row)
        )
    lines.append("")
    lines.append("## Contrastive deviations from the recorded column")
    deviations = _deviations(report)
    if not deviations:
        lines.append("")
        lines.append("none")
    for headline, details in deviations:
        lines.append("")
        lines.append(f"- {headline}")
        lines.extend(f"  - {detail}" for detail in details)
    return "\n".join(lines) + "\n"


def _witness_text(effect: Event, verdict: HPHVerdict) -> str:
    witness = verdict.witness
    frozen = _set_text(witness.frozen) if witness.frozen else "none"
    broken = witness.outcome_map()[effect.var]
    return (
        f"{verdict.event.render()}: contrast {_set_text(witness.contrast)} "
        f"freeze {frozen} breaks {effect.var} to {broken}"
    )


def _deviations(report: BenchReport) -> list[tuple[str, list[str]]]:
    """Each case whose contrastive set differs from the recorded column: a
    headline, then why the recorded events are missing and each computed
    event's witness."""
    out = []
    for result in report.results:
        if not result.printed_deviation:
            continue
        case = result.case
        recorded = result.recorded_contrastive
        details = []
        missing = (recorded or frozenset()) - result.contrastive
        if missing:
            details.append(
                f"recorded but not derivable: {_set_text(missing)} "
                "(no contrast set admits an admissible witness)"
            )
        details.extend(
            _witness_text(case.effect, verdict) for verdict in result.contrastive_verdicts
        )
        headline = (
            f"{case.id}: computed {_set_text(result.contrastive)}, "
            f"recorded {_set_text(recorded)}"
        )
        out.append((headline, details))
    return out


def _render_plain(report: BenchReport) -> str:
    rows = _rows(report)
    summary = _summary(report)
    lines = []
    for row in rows:
        lines.append(
            f"{row['case']}: causes={row['causes']} "
            f"intuition={row['intuition']} match={row['match']} "
            f"contrastive={row['contrastive']} "
            f"contrastive-match={row['contrastive_match']}"
        )
    lines.append("deviations from the recorded contrastive column:")
    deviations = _deviations(report)
    if not deviations:
        lines.append("  none")
    for headline, details in deviations:
        lines.append(f"  {headline}")
        lines.extend(f"    {detail}" for detail in details)
    lines.append(
        "total={cases} primary-mismatches={primary_mismatches} "
        "contrastive-raw={contrastive_raw_mismatches} "
        "contrastive-adjusted={contrastive_adjusted_mismatches}".format(
            **summary
        )
    )
    return "\n".join(lines) + "\n"


# each report format, in the order `bench --format` lists them
FORMATS = {
    "plain": _render_plain,
    "json": _render_json,
    "csv": _render_csv,
    "md": _render_markdown,
}
