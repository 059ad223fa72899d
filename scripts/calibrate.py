#!/usr/bin/env python3
"""Calibration report for the benchmark corpus.

Runs every corpus case through the engine and prints, per section:

1. per-case verdicts (primary causes vs intuition, contrastive vs intuition),
2. the aggregate tallies the acceptance gate checks,
3. the contrastive deviation list (computed vs recorded cells, with witnesses),
4. strict-variant containment and omission-exclusion checks,
5. intention-rule effects on the annotated cases,
6. a continuity-rule diff (chain-certified vs plan-membership defaults).

Exit status is nonzero when a gate fails, so the script doubles as a smoke
test during development.
"""

from __future__ import annotations

import sys
from pathlib import Path

from actualcause.bench import run_bench, _set_text, _witness_text
from actualcause.engine import DEFAULT_OPTIONS, EngineOptions, causes_of

CORPUS = Path(__file__).resolve().parents[1] / "src" / "actualcause" / "corpus"

EXPECTED_RAW = 18
EXPECTED_ADJUSTED = 9


def main() -> int:
    failures: list[str] = []
    report = run_bench(CORPUS)
    print("== per-case verdicts ==")
    for res in report.results:
        raw = "ok" if res.contrastive_raw_match else "RAW-MISMATCH"
        adj = "" if res.contrastive_adjusted_match else " ADJ-MISMATCH"
        prim = "ok" if res.primary_match else "PRIMARY-MISMATCH"
        print(
            f"case {res.case.id}: primary {_set_text(res.primary)} "
            f"[{prim}] | contrastive {_set_text(res.contrastive)} "
            f"vs intuition {_set_text(res.case.intuition)} [{raw}{adj}]"
        )

    print("\n== aggregates ==")
    primary_bad = report.primary_mismatches
    raw_bad = report.contrastive_raw_mismatches
    adj_bad = report.contrastive_adjusted_mismatches
    print(f"primary mismatches: {len(primary_bad)} "
          f"({sorted(r.case.id for r in primary_bad)})")
    print(f"contrastive raw mismatches: {len(raw_bad)} "
          f"({sorted(r.case.id for r in raw_bad)})")
    print(f"contrastive adjusted mismatches: {len(adj_bad)} "
          f"({sorted(r.case.id for r in adj_bad)})")
    print(f"total wall time: {report.total_ms:.0f} ms")
    if primary_bad:
        failures.append(f"{len(primary_bad)} primary mismatches")
    if len(raw_bad) != EXPECTED_RAW:
        failures.append(f"raw mismatches {len(raw_bad)} != {EXPECTED_RAW}")
    if len(adj_bad) != EXPECTED_ADJUSTED:
        failures.append(f"adjusted mismatches {len(adj_bad)} != {EXPECTED_ADJUSTED}")

    print("\n== contrastive deviation list (computed vs recorded cell) ==")
    for res in report.results:
        if not res.printed_deviation:
            continue
        recorded = res.recorded_contrastive
        print(f"case {res.case.id}: recorded {_set_text(recorded)} "
              f"computed {_set_text(res.contrastive)}")
        extra = res.contrastive - (recorded or frozenset())
        missing = (recorded or frozenset()) - res.contrastive
        for verdict in res.contrastive_verdicts:
            if verdict.event in extra:
                print(f"    {_witness_text(res.case.effect, verdict)}")
        for event in sorted(missing, key=lambda ev: ev.var):
            print(f"    {event.render()} recorded but not derivable "
                  f"(no contrast set admits an admissible witness)")

    print("\n== strict variant (3') ==")
    strict_options = EngineOptions(abnormality_variant="3prime")
    subset_bad: list[str] = []
    omission_bad: list[str] = []
    for res in report.results:
        case = res.case
        strict = causes_of(case.scenario, case.effect, strict_options)
        liberal = causes_of(case.scenario, case.effect, DEFAULT_OPTIONS)
        if not strict <= liberal:
            subset_bad.append(case.id)
        if case.omission_flag:
            defaults = case.scenario.defaults
            at_default = {
                ev for ev in (case.intuition or frozenset())
                if ev.value == defaults[ev.var]
            }
            leaked = at_default & strict
            status = "excluded" if not leaked else f"LEAKED {_set_text(leaked)}"
            print(f"case {case.id}: omissions {_set_text(frozenset(at_default))} "
                  f"-> {status}; strict {_set_text(strict)}")
            if leaked:
                omission_bad.append(case.id)
    print(f"strict-subset violations: {subset_bad}")
    if subset_bad:
        failures.append(f"strict variant not contained on {subset_bad}")
    if omission_bad:
        failures.append(f"strict variant keeps omissions on {omission_bad}")

    print("\n== intention rule ==")
    for res in report.results:
        case = res.case
        if not case.scenario.intentions:
            continue
        raw = causes_of(case.scenario, case.effect)
        print(f"case {case.id}: raw {_set_text(raw)} -> ruled {_set_text(res.primary)}")

    print("\n== continuity diff (plan-membership vs chain-certified) ==")
    alt = run_bench(CORPUS, EngineOptions(continuity="chain-certified"))
    diffs = 0
    for res, other in zip(report.results, alt.results):
        if res.primary != other.primary:
            diffs += 1
            print(f"case {res.case.id}: plan-membership "
                  f"{_set_text(res.primary)} | chain-certified "
                  f"{_set_text(other.primary)}")
    print(f"cases that distinguish the readings: {diffs}")

    print("\n== result ==")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("all calibration gates pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
