#!/usr/bin/env python3
"""Two corpus listings that `actualcause bench` does not print:

1. the intention rule on each case that declares intentions (raw causes,
   then the causes the rule reports),
2. the continuity diff: the cases whose raw causes differ between the
   engine's plan-membership reading and the chain-certified ablation, which
   the oracle spells out (`oracle_causes_of(..., continuity=...)`).

Run with `PYTHONPATH=src python scripts/calibrate.py`.
"""

from __future__ import annotations

from pathlib import Path

from actualcause import causes_of, intentional_causes, parse_case, render_events
from actualcause.oracle import oracle_causes_of

CORPUS = Path(__file__).resolve().parents[1] / "src" / "actualcause" / "corpus"


def main() -> None:
    cases = [parse_case(path.read_text(encoding="utf-8"))
             for path in sorted(CORPUS.glob("*.case"))]
    print("== intention rule ==")
    for case in cases:
        if case.scenario.intentions:
            raw = causes_of(case.scenario, case.effect)
            ruled = intentional_causes(case.scenario, case.effect)
            print(f"case {case.id}: raw {render_events(raw)} "
                  f"-> ruled {render_events(ruled)}")

    print("\n== continuity diff (plan-membership vs chain-certified) ==")
    diffs = 0
    for case in cases:
        plan = causes_of(case.scenario, case.effect)
        chain = oracle_causes_of(case.scenario, case.effect, continuity="chain-certified")
        if plan != chain:
            diffs += 1
            print(f"case {case.id}: plan-membership {render_events(plan)} "
                  f"| chain-certified {render_events(chain)}")
    print(f"cases that distinguish the readings: {diffs}")


if __name__ == "__main__":
    main()
