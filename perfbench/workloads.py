"""Benchmark workloads: their input texts, their queries and the canonical
form of each answer.

Every input is DSL case text.  A query parses its text and calls the engine
through the package namespace ``ac`` it is given, so the tracer's rebound
names see every call and no engine object survives from one query to the
next.  A query returns the engine's raw results; ``canonical`` turns them
into plain JSON values outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
CORPUS_DIR = SRC / "actualcause" / "corpus"
REFERENCE_DIR = BENCH_DIR / "references"

WORKLOADS = ("corpus", "or-wide", "random-nets")

# or-wide: e = ~(x0|...|x10) with every xi = 0, the worst case found so far
OR_WIDTH = 11

# random-nets: one fixed pool of seeded models; --seed only orders the queries
POOL_SEED = 1
POOL_SIZE = 200
POOL_MAX_VARS = 12
NETS_KEPT = 20


def use_checkout_source() -> None:
    """Import the engine from this checkout's src/, never from elsewhere."""
    if not (SRC / "actualcause" / "__init__.py").is_file():
        raise SystemExit(f"error: no actualcause package under {SRC}")
    sys.path.insert(0, str(SRC))


def check_imported(ac) -> None:
    if Path(ac.__file__).resolve().parent != SRC / "actualcause":
        raise SystemExit(f"error: imported actualcause from {ac.__file__}, not {SRC}")


def reference_path(workload: str) -> Path:
    if workload == "corpus":
        return REFERENCE_DIR / "corpus.json"
    return REFERENCE_DIR / f"random-nets-seed{POOL_SEED}.json"


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- inputs -------------------------------------------------------------------


def corpus_inputs(corpus_dir: Path) -> list[tuple[str, str]]:
    """(file name, text) of every shipped case, in filename order."""
    return [
        (path.name, path.read_text(encoding="utf-8"))
        for path in sorted(corpus_dir.glob("*.case"))
    ]


def or_wide_text(seed: int, width: int = OR_WIDTH) -> str:
    """The OR-of-n case; the seed only shuffles declaration and disjunct
    order, which leaves the work unchanged."""
    rng = random.Random(f"or-wide:{seed}")
    names = [f"x{i}" for i in range(width)]
    declared = rng.sample(names, len(names))
    disjuncts = rng.sample(names, len(names))
    formulas = "; ".join(f"{name}=0" for name in declared)
    return (
        f"case or-{width}\n"
        "mode reliable\n"
        f"formulas: {formulas}; e=~({'|'.join(disjuncts)})\n"
        "effect: e=1\n"
    )


def random_nets_inputs() -> list[tuple[str, str]]:
    """(pool index, text) for the seeded random models of the fixed pool,
    each with its deepest variable as the effect."""
    from actualcause.dsl import BenchCase, serialize_case
    from actualcause.randmodel import random_effect, scenario_stream

    out = []
    for index, scenario in scenario_stream(POOL_SEED, POOL_SIZE, max_vars=POOL_MAX_VARS):
        case = BenchCase(
            id=f"r{POOL_SEED}-{index}",
            source=f"randmodel seed {POOL_SEED} index {index}",
            scenario=scenario,
            effect=random_effect(scenario),
        )
        out.append((str(index), serialize_case(case)))
    return out


# -- queries --------------------------------------------------------------------


def query_case(ac, text: str):
    """The `actualcause bench` traffic: parse, primary causes, contrastive
    comparator."""
    case = ac.parse_case(text)
    primary = ac.intentional_causes(case.scenario, case.effect)
    contrastive = ac.hph_causes(case.scenario, case.effect)
    return case, primary, contrastive


def _attempt(ac, operation, *args):
    try:
        return operation(*args)
    except ac.ReasoningError as err:
        return type(err).__name__


def query_random_nets(ac, text: str):
    """Both abnormality variants, the comparator, and every net operation
    on the first NETS_KEPT cause nets."""
    case = ac.parse_case(text)
    scenario, effect = case.scenario, case.effect
    primary = ac.intentional_causes(scenario, effect)
    prime = ac.causes_of(
        scenario, effect, ac.EngineOptions(abnormality_variant="3prime")
    )
    contrastive = ac.hph_causes(scenario, effect)
    try:
        nets = ac.cause_nets(scenario, effect)[:NETS_KEPT]
    except (ac.ReasoningError, ac.NoParentsError) as err:
        return primary, prime, contrastive, type(err).__name__
    operations = []
    for net in nets:
        steps = [
            (
                member,
                _attempt(ac, ac.interpolate, scenario, net, member, effect),
                _attempt(ac, ac.extrapolate, scenario, net, member, effect),
                _attempt(ac, ac.flank, scenario, net, member, effect),
            )
            for member in sorted(net.events)
        ]
        operations.append(
            (net, _attempt(ac, ac.distance, scenario, net, effect), steps)
        )
    return primary, prime, contrastive, operations


QUERIES = {
    "corpus": query_case,
    "or-wide": query_case,
    "random-nets": query_random_nets,
}


# -- canonical answers ------------------------------------------------------------


def render(events) -> list[str]:
    return sorted(ev.render() for ev in events)


def _net_value(result):
    """A net operation result: its sorted events, or the error class name."""
    if isinstance(result, str):
        return result
    return render(result.events)


def net_outputs(operations) -> list:
    """Every net an operation produced (cause nets and step results)."""
    if isinstance(operations, str):
        return []
    out = []
    for net, _distance, steps in operations:
        out.append(net)
        for _member, *results in steps:
            out.extend(r for r in results if not isinstance(r, str))
    return out


def operations_digest(operations) -> str:
    """Hash of the exact nets, distances and operation results."""
    if isinstance(operations, str):
        payload: object = operations
    else:
        payload = [
            {
                "net": render(net.events),
                "distance": distance,
                "steps": [
                    [member.render()] + [_net_value(r) for r in results]
                    for member, *results in steps
                ],
            }
            for net, distance, steps in operations
        ]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def canonical(ac, workload: str, raw, with_raw: bool = True) -> dict:
    """The answer's checked fields.  For corpus and or-wide, `with_raw`
    also asks the engine for its raw ``causes_of`` verdict, before the
    intention rule, so that it can be checked against the oracle;
    random-nets models declare no intentions, so there the primary answer
    is the raw one."""
    if workload == "random-nets":
        primary, prime, contrastive, operations = raw
        return {
            "primary": render(primary),
            "prime": render(prime),
            "hph": sorted(contrastive.vars()),
            "ops_digest": operations_digest(operations),
        }
    case, primary, contrastive = raw
    answer = {"primary": render(primary), "hph": sorted(contrastive.vars())}
    if with_raw:
        answer["raw"] = render(ac.causes_of(case.scenario, case.effect))
    return answer
