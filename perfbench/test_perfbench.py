"""Self-checks of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q

The traced counts must repeat exactly, the tracer must restore every name
it rebinds, and an untraced run must never import the tracer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import workloads

workloads.use_checkout_source()

import layertrace  # noqa: E402
import run  # noqa: E402

BENCH_ROOT = workloads.BENCH_DIR.parent
# enough random-nets queries to reach every reasoning span, without a full pass
RANDOM_NETS_QUERIES = 20


def _loop(workload: str) -> run.Loop:
    ac, queries = run.setup(workload, 0)
    if workload == "random-nets":
        queries = queries[:RANDOM_NETS_QUERIES]
    return run.Loop(ac, workload, queries)


def _bindings() -> dict[str, int]:
    """Identity of every name in the package modules and their classes."""
    out = {}
    for module in layertrace.package_modules():
        for attr, value in vars(module).items():
            out[f"{module.__name__}.{attr}"] = id(value)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for member, item in vars(value).items():
                    out[f"{module.__name__}.{attr}.{member}"] = id(item)
    return out


def _traced_counts(loop: run.Loop) -> dict[str, int]:
    tracer = layertrace.Tracer()
    loop.run_pass(list(range(len(loop.queries))), tracer)
    return tracer.counts_only()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_names_are_restored(workload):
    loop = _loop(workload)
    before = _bindings()
    first = _traced_counts(loop)
    assert _bindings() == before
    second = _traced_counts(loop)
    assert _bindings() == before
    assert first == second
    assert first["dsl.parse_case.calls"] == len(loop.queries)
    assert loop.failures == []


def test_tracer_wraps_names_in_every_importing_module():
    loop = _loop("corpus")
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        wrapped = tracer.leftover_wrappers()
    finally:
        tracer.uninstall()
    assert tracer.leftover_wrappers() == []
    for name in (
        "actualcause.parse_case",
        "actualcause.engine.minimal_sufficient_sets",
        "actualcause.sufficiency.plan_abnormality",
        "actualcause.normality.solve",
        "actualcause.comparators.solve",
        "actualcause.model.Model.__init__",
        "actualcause.engine.ScenarioAnalysis.chain_for",
    ):
        assert name in wrapped
    assert loop.failures == []


def _command(*args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=BENCH_ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        env=env,
        check=True,
    )


def test_untraced_run_never_imports_the_tracer():
    done = _command(
        "-X", "importtime", "perfbench/run.py",
        "--workload", "corpus", "--seed", "0", "--seconds", "0", "--trace", "0",
    )
    assert "layertrace" not in done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0


def test_traced_counts_repeat_across_processes_and_hash_seeds():
    counts = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = _command(
            "perfbench/run.py", "--workload", "corpus", "--seed", "5",
            "--seconds", "1", "--trace", "1", env=env,
        )
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        counts.append(
            {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}
        )
    assert counts[0] == counts[1]
    assert counts[0]["model.Model.builds"] > 0


def test_quiet_cpu_pins_to_one_allowed_cpu():
    allowed = os.sched_getaffinity(0)
    quiet = run.QuietCpu()
    try:
        quiet.settle()
        pinned = os.sched_getaffinity(0)
        assert pinned <= allowed
        assert len(pinned) == (1 if len(allowed) > 1 else len(allowed))
    finally:
        os.sched_setaffinity(0, allowed)
