"""Write the benchmark's stored references.

    python3 perfbench/make_references.py corpus
    python3 perfbench/make_references.py random-nets

Each reference lists, per query, the digest of its input text and a list of
checks ``[answer field, expected value, source]``.  The sources are:

- ``intuition``: the case file's hand-written intuition cell;
- ``oracle``: the naive definition-unfolding implementations in
  ``actualcause.oracle``, which share no search code with the engine.  The
  primary answer's oracle check applies ``intention_rule`` below, a copy of
  the engine's intention rule, to the oracle's raw causes; the ``raw``
  check compares the engine's ``causes_of`` with the oracle directly;
- ``regression``: the engine's exact net-operation output (nets, distances,
  error classes), hashed, as produced when the reference was written.  Every
  net in that output is checked with ``oracle_is_sufficient`` first; a query
  whose output fails the check gets the expected digest ``oracle-rejected``,
  which no answer matches.

The or-wide answer is derived by hand and lives in run.py.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import workloads


def intention_rule(scenario, effect, raw):
    """The intention rule applied to a raw cause set: a declared
    (intention, action) pair is reported only when both members are
    off-default and both are raw causes."""
    from actualcause import Event

    reported = set(raw)
    for intention_var, action_var in scenario.intentions:
        if effect.var in (intention_var, action_var):
            continue
        pair = [Event(v, scenario.actual_value(v)) for v in (intention_var, action_var)]
        off_default = all(ev.value != scenario.defaults[ev.var] for ev in pair)
        if off_default and all(ev in raw for ev in pair):
            continue
        reported.difference_update(pair)
    return frozenset(reported)


def corpus_references() -> dict:
    import actualcause as ac
    from actualcause.oracle import oracle_causes_of, oracle_hph_vars

    queries = {}
    for name, text in workloads.corpus_inputs(workloads.CORPUS_DIR):
        case = ac.parse_case(text)
        scenario, effect = case.scenario, case.effect
        if case.intuition is None:
            raise SystemExit(f"{name}: no intuition cell")
        raw = oracle_causes_of(scenario, effect)
        primary = intention_rule(scenario, effect, raw)
        queries[name] = {
            "text_sha": workloads.text_digest(text),
            "checks": [
                ["primary", workloads.render(case.intuition), "intuition"],
                ["primary", workloads.render(primary), "oracle"],
                ["raw", workloads.render(raw), "oracle"],
                ["hph", sorted(oracle_hph_vars(scenario, effect)), "oracle"],
            ],
        }
    return {"workload": "corpus", "queries": queries}


def random_nets_references() -> dict:
    import actualcause as ac
    from actualcause.oracle import (
        oracle_causes_of,
        oracle_hph_vars,
        oracle_is_sufficient,
    )

    queries = {}
    for index, text in workloads.random_nets_inputs():
        case = ac.parse_case(text)
        scenario, effect = case.scenario, case.effect
        primary = intention_rule(scenario, effect, oracle_causes_of(scenario, effect))
        prime = oracle_causes_of(scenario, effect, variant="3prime")
        hph = oracle_hph_vars(scenario, effect)
        # regression part: the engine's own net-operation output, vetted by
        # the oracle's sufficiency check
        operations = workloads.query_random_nets(ac, text)[3]
        sufficient = all(
            oracle_is_sufficient(
                scenario, {ev.var: ev.value for ev in net.events}, effect
            )
            for net in workloads.net_outputs(operations)
        )
        digest = workloads.operations_digest(operations) if sufficient else "oracle-rejected"
        queries[index] = {
            "text_sha": workloads.text_digest(text),
            "checks": [
                ["primary", workloads.render(primary), "oracle"],
                ["prime", workloads.render(prime), "oracle"],
                ["hph", sorted(hph), "oracle"],
                ["ops_digest", digest, "regression"],
            ],
        }
    return {
        "workload": "random-nets",
        "pool_seed": workloads.POOL_SEED,
        "pool_size": workloads.POOL_SIZE,
        "max_vars": workloads.POOL_MAX_VARS,
        "queries": queries,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("corpus", "random-nets"))
    args = parser.parse_args()
    workloads.use_checkout_source()
    start = time.perf_counter()
    if args.workload == "corpus":
        payload = corpus_references()
    else:
        payload = random_nets_references()
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    elapsed = time.perf_counter() - start
    path = workloads.reference_path(args.workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path.name}: {len(payload['queries'])} queries in {elapsed:.1f}s")
    rejected = sum(
        1
        for query in payload["queries"].values()
        for _field, value, _source in query["checks"]
        if value == "oracle-rejected"
    )
    if rejected:
        print(f"warning: {rejected} queries have net outputs the oracle rejects", file=sys.stderr)


if __name__ == "__main__":
    main()
