"""Scaling probe: how `causes_of` latency grows with model size.

    python3 perfbench/probe.py [--seed 1] [--models 50] [--limit 20]

Not part of the gated benchmark runs.  It prints `causes_of` latency on the
OR-of-n family (n = 6, 8, 10, 12; median of three runs, one run at n = 12)
and on seeded random models at fixed max_vars = 10, 12, 14, 16 (median and
maximum over --models models).  A random model that runs longer than
--limit seconds is stopped and counted as over the limit, because nothing
bounds the engine's work yet.  The last line is the same data as JSON.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import time

import workloads

OR_SIZES = (6, 8, 10, 12)
MAX_VARS = (10, 12, 14, 16)


class _OverLimit(Exception):
    pass


def _alarm(_signum, _frame):
    raise _OverLimit


def _timed_causes(ac, text: str) -> float:
    case = ac.parse_case(text)
    start = time.perf_counter()
    ac.causes_of(case.scenario, case.effect)
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description="causes_of scaling probe")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--models", type=int, default=50)
    parser.add_argument("--limit", type=float, default=20.0)
    args = parser.parse_args()
    workloads.use_checkout_source()
    import actualcause as ac
    from actualcause.dsl import BenchCase, serialize_case
    from actualcause.randmodel import random_effect, scenario_stream

    workloads.check_imported(ac)
    report: dict = {"or_n_s": {}, "random_max_vars": {}}
    for n in OR_SIZES:
        text = workloads.or_wide_text(args.seed, width=n)
        runs = [_timed_causes(ac, text) for _ in range(1 if n >= 12 else 3)]
        report["or_n_s"][n] = statistics.median(runs)
        print(f"OR-of-{n}: causes_of {report['or_n_s'][n]:.4f} s")

    signal.signal(signal.SIGALRM, _alarm)
    try:
        for max_vars in MAX_VARS:
            times, over = [], 0
            for index, scenario in scenario_stream(args.seed, args.models, max_vars=max_vars):
                case = BenchCase(
                    id=str(index), source="", scenario=scenario,
                    effect=random_effect(scenario),
                )
                signal.setitimer(signal.ITIMER_REAL, args.limit)
                try:
                    times.append(_timed_causes(ac, serialize_case(case)))
                except _OverLimit:
                    over += 1
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            row = {
                "models": args.models,
                "median_s": statistics.median(times) if times else None,
                "max_s": max(times) if times else None,
                "over_limit": over,
            }
            report["random_max_vars"][max_vars] = row
            print(
                f"random max_vars={max_vars}: median {row['median_s']:.4f} s, "
                f"max {row['max_s']:.4f} s, {over} of {args.models} over {args.limit:g} s"
            )
    finally:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    print(json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    main()
