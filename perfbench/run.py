"""The repository benchmark: one closed-loop client, one thread, one process.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``corpus``, ``or-wide``, ``random-nets``.  Every
query starts from case text and is checked against a stored reference.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
makes a warm-up pass, then runs each query of one pass untraced, traced and
untraced again, and reports the per-layer metrics of the traced runs.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

import workloads

# setup_s is the fastest of the set-ups a run makes: this many before the
# first query and, in an untraced run, this many after the last
SETUPS_EACH_SIDE = 10
# each query runs at least this often in an untraced run
MIN_REPEATS = 4
# query_tail_ms is the highest percentile with this many queries beyond it
TAIL_BEYOND = 10
# between queries and before each set-up, at most this often, the run moves
# to the quietest of its CPUs (see QuietCpu)
SETTLE_EVERY = 0.25

# e = ~(x0|...|x10) with all xi = 0 and defaults 0.  The only minimal
# sufficient plan pins every xi; each contrast sets some xi to 1, a pin off
# both its actual and its default value, which ranks Mid against the Top of
# the actual world, so no witness is admissible and nothing is certified.
# No xi is off its default, so the comparator has nothing to contrast.
# No variable declares an intention, so the raw answer is empty too.
OR_WIDE_CHECKS = [["primary", [], "hand"], ["raw", [], "hand"], ["hph", [], "hand"]]


# -- the quietest CPU ------------------------------------------------------------


def spin() -> float:
    """Seconds a fixed pure-Python loop of about a millisecond takes."""
    start = time.perf_counter()
    sum(i * i % 7 for i in range(20_000))
    return time.perf_counter() - start


class QuietCpu:
    """Keeps this process on the quietest CPU it may use.  Other tenants of
    the machine load its CPUs unevenly, and a loaded CPU runs this process's
    Python about 1.4 times slower; which CPU is loaded changes within a
    second.  Each CPU is timed on a short fixed loop and the process is
    pinned to the fastest.  The single thread of the benchmark only ever
    runs on one CPU at a time either way."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.due = 0.0

    def settle(self) -> None:
        if len(self.cpus) < 2 or time.perf_counter() < self.due:
            return
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(spin() for _ in range(3))
        os.sched_setaffinity(0, {min(speed, key=speed.get)})
        self.due = time.perf_counter() + SETTLE_EVERY


QUIET = QuietCpu()


# -- set-up --------------------------------------------------------------------


def fresh_import():
    """Drop every loaded engine module and import the package again."""
    for name in [n for n in sys.modules if n == "actualcause" or n.startswith("actualcause.")]:
        del sys.modules[name]
    return importlib.import_module("actualcause")


def setup(workload: str, seed: int):
    """Import the engine, make the inputs and load their references.
    Returns (package, [(key, text, checks)])."""
    ac = fresh_import()
    if workload == "or-wide":
        return ac, [("or-wide", workloads.or_wide_text(seed), OR_WIDE_CHECKS)]
    if workload == "corpus":
        inputs = workloads.corpus_inputs(workloads.CORPUS_DIR)
    else:
        inputs = workloads.random_nets_inputs()
    text = workloads.reference_path(workload).read_text(encoding="utf-8")
    reference = json.loads(text)["queries"]
    if sorted(key for key, _ in inputs) != sorted(reference):
        raise SystemExit(f"error: {workload} inputs do not match the reference keys")
    queries = []
    for key, text in inputs:
        entry = reference[key]
        if entry["text_sha"] != workloads.text_digest(text):
            raise SystemExit(f"error: input {key} differs from the text its reference was made from")
        queries.append((key, text, entry["checks"]))
    return ac, queries


def timed_setups(workload: str, seed: int) -> tuple[list[float], object, list]:
    """Set up SETUPS_EACH_SIDE times, each from a collected heap; returns the
    set-up times and the last set-up's package and queries."""
    setups = []
    for _ in range(SETUPS_EACH_SIDE):
        # the modules of earlier set-ups are garbage in reference cycles;
        # collect them outside the timed region, so that no set-up pays for
        # collecting another's, and the queries start from the heap of a
        # single import
        gc.collect()
        QUIET.settle()
        start = time.perf_counter()
        ac, queries = setup(workload, seed)
        setups.append(time.perf_counter() - start)
    gc.collect()
    return setups, ac, queries


# -- measurement ------------------------------------------------------------------


def pass_order(workload: str, count: int, seed: int, pass_no: int) -> list[int]:
    if workload == "random-nets":
        return random.Random(f"random-nets:{seed}:{pass_no}").sample(range(count), count)
    start = seed % count
    return [(start + k) % count for k in range(count)]


class Loop:
    """The closed-loop client: runs queries, times each one and checks its
    answer against the reference, outside the timed region and outside any
    trace.  The engine's raw verdict, which the query does not return, is
    asked for and checked on a query's first run only: on or-wide it costs
    as much as the query, and would halve the query's repeats."""

    def __init__(self, ac, workload: str, queries) -> None:
        self.ac = ac
        self.workload = workload
        self.queries = queries
        self.query = workloads.QUERIES[workload]
        self.times: list[list[float]] = [[] for _ in queries]
        self.attempted = 0
        self.failures: list[str] = []
        self.raw_checked: set[int] = set()

    def run_pass(self, order: list[int], tracer=None) -> float:
        """Run the queries in order, each traced if a tracer is given;
        returns the seconds they took."""
        busy = 0.0
        for index in order:
            key, text, checks = self.queries[index]
            self.attempted += 1
            QUIET.settle()
            if tracer is not None:
                tracer.install()
            start = time.perf_counter()
            try:
                raw = self.query(self.ac, text)
            except Exception as err:  # a failed query, not a failed benchmark
                raw = None
                self.failures.append(f"{key}: raised {type(err).__name__}: {err}")
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.uninstall()
            self.times[index].append(elapsed)
            busy += elapsed
            if raw is None:
                continue
            with_raw = index not in self.raw_checked
            self.raw_checked.add(index)
            answer = workloads.canonical(self.ac, self.workload, raw, with_raw)
            wrong = [
                f"{field} {answer[field]} != {source} {expected}"
                for field, expected, source in checks
                if (field != "raw" or with_raw) and answer[field] != expected
            ]
            if wrong:
                self.failures.append(f"{key}: " + "; ".join(wrong))
        return busy


def measure(loop: Loop, seed: int, seconds: float) -> None:
    """Whole passes until `seconds` have passed, with at least MIN_REPEATS
    passes."""
    start = time.perf_counter()
    pass_no = 0
    while time.perf_counter() - start < seconds or pass_no < MIN_REPEATS:
        loop.run_pass(pass_order(loop.workload, len(loop.queries), seed, pass_no))
        pass_no += 1


def end_to_end(times: list[list[float]], setup_s: float) -> tuple[dict, str]:
    """The untraced metrics.  A query's latency is the fastest of its
    repeats: the machine is shared, and contention only ever adds time.
    The tail is the highest percentile of the pool's latencies with
    TAIL_BEYOND queries beyond it; or-wide's pool is one query, so there
    the tail is that query's latency."""
    latency = sorted(min(repeats) for repeats in times)
    count = len(latency)
    if count > TAIL_BEYOND:
        tail = latency[count - TAIL_BEYOND - 1]
        note = f"p{100.0 * (count - TAIL_BEYOND) / count:.2f} of {count} query latencies"
    else:
        tail = latency[-1]
        note = f"the slowest of only {count} query latencies"
    repeats = min(len(r) for r in times)
    metrics = {
        "queries_per_s": count / sum(latency),
        "query_p50_ms": statistics.median(latency) * 1000.0,
        "query_tail_ms": tail * 1000.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, f"query_tail_ms is {note}; each latency is the fastest of {repeats}+ repeats"


def traced(loop: Loop, seed: int) -> tuple[dict, list[str]]:
    """After a warm-up pass, one pass in which every query runs untraced,
    traced and untraced again, back to back, so that the machine's drift
    cancels out of trace_overhead_ratio."""
    import layertrace

    order = pass_order(loop.workload, len(loop.queries), seed, 0)
    loop.run_pass(order)  # warm-up: the first run after an import is slower
    tracer = layertrace.Tracer()
    untraced = during = 0.0
    for index in order:
        before = loop.run_pass([index])
        during += loop.run_pass([index], tracer)
        untraced += (before + loop.run_pass([index])) / 2.0
    leftover = tracer.leftover_wrappers()
    if leftover:
        raise SystemExit(f"error: tracer left names rebound: {leftover}")
    metrics = tracer.metrics()
    metrics["trace_overhead_ratio"] = during / untraced
    lines = [f"span edges (parent > child: calls) over one pass of {len(order)} queries:"]
    lines += [
        f"  {parent} > {child}: {calls}"
        for (parent, child), calls in sorted(tracer.edges.items())
    ]
    return metrics, lines


# -- output -------------------------------------------------------------------------


def declared_metrics(trace: bool) -> dict[str, str]:
    """name -> unit, from BENCHMARK.json at the checkout root."""
    spec = json.loads((workloads.BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> None:
    parser = argparse.ArgumentParser(description="actualcause benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads.use_checkout_source()
    units = declared_metrics(bool(args.trace))

    setups, ac, queries = timed_setups(args.workload, args.seed)
    workloads.check_imported(ac)
    loop = Loop(ac, args.workload, queries)

    info = [
        f"workload {args.workload}, seed {args.seed}, {len(queries)} queries per pass, "
        f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}",
    ]
    if args.trace:
        metrics, lines = traced(loop, args.seed)
        info += lines
    else:
        measure(loop, args.seed, args.seconds)
        # a second cluster of set-ups, half a minute after the first, gives
        # the fastest set-up two chances to miss a slow stretch of the
        # machine; it comes after the last query, so no query sees it
        setups += timed_setups(args.workload, args.seed)[0]
        metrics, note = end_to_end(loop.times, min(setups))
        info.append(note)
        info.append(
            f"setup_s is the fastest of {len(setups)} set-ups; "
            f"their median is {statistics.median(setups):.4f} s"
        )
    if set(metrics) != set(units):
        raise SystemExit(
            f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )
    attempted = loop.attempted
    failed = len(loop.failures)
    info.append(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} queries)")
    for message in loop.failures[:5]:
        print(f"failed: {message}", file=sys.stderr)
    for line in info:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
