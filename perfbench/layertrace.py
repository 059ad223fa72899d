"""Outside-in layer tracer for the benchmark.

The tracer wraps public functions of the engine's layer modules without
editing them: ``install`` rebinds every name in ``actualcause`` and its
submodules that refers to a wrapped function (and three methods on their
classes) and ``uninstall`` puts the originals back.  Modules import each
other's functions by name, so rebinding only the defining module would miss
most calls.

Coarse boundaries get spans (calls, inclusive time, self time, parent
edges).  Hot leaves (``solve``, ``enumerate_settings``, ``reduced_model``,
``is_sufficient``) get counters only, to keep the overhead small.  Self time
is a span's duration minus the time covered by its direct child spans.

Only the benchmark's traced mode imports this module.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

PACKAGE = "actualcause"

# span name -> (module, attribute) of the wrapped function
SPAN_FUNCTIONS = {
    "dsl.parse_case": ("actualcause.dsl", "parse_case"),
    "sufficiency.minimal_sufficient_sets": (
        "actualcause.sufficiency",
        "minimal_sufficient_sets",
    ),
    "sufficiency.direct_cause_graph": ("actualcause.sufficiency", "direct_cause_graph"),
    "sufficiency.direct_cause_sets": ("actualcause.sufficiency", "direct_cause_sets"),
    "normality.plan_abnormality": ("actualcause.normality", "plan_abnormality"),
    "comparators.hph_causes": ("actualcause.comparators", "hph_causes"),
    "reasoning.cause_nets": ("actualcause.reasoning", "cause_nets"),
    "reasoning.interpolate": ("actualcause.reasoning", "interpolate"),
    "reasoning.extrapolate": ("actualcause.reasoning", "extrapolate"),
    "reasoning.flank": ("actualcause.reasoning", "flank"),
    "reasoning.distance": ("actualcause.reasoning", "distance"),
}

# span name -> (module, class, method)
SPAN_METHODS = {
    "model.Model": ("actualcause.model", "Model", "__init__"),
    "engine.analyze": ("actualcause.engine", "ScenarioAnalysis", "__init__"),
    "engine.chain_for": ("actualcause.engine", "ScenarioAnalysis", "chain_for"),
}

# counter-only leaves: counter name -> (module, attribute)
COUNTED_FUNCTIONS = {
    "model.solve": ("actualcause.model", "solve"),
    "model.reduced_model": ("actualcause.model", "reduced_model"),
    "sufficiency.is_sufficient": ("actualcause.sufficiency", "is_sufficient"),
}
SETTINGS_FUNCTION = ("actualcause.model", "enumerate_settings")

REASONING_SPANS = tuple(name for name in SPAN_FUNCTIONS if name.startswith("reasoning."))


class _SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span and counter state for one traced pass."""

    def __init__(self) -> None:
        self.spans: dict[str, _SpanStats] = {}
        self.counts: Counter[str] = Counter()
        self.edges: Counter[tuple[str, str]] = Counter()
        # open spans: [name, start, time covered by child spans]
        self._stack: list[list] = []
        # how many spans of each name are open, for "under span X" counters
        self.open: Counter[str] = Counter()
        self._rebound: list[tuple[object, str, object]] = []
        # id -> wrapper; holding the wrappers keeps their ids from being reused
        self._wrappers: dict[int, object] = {}

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> None:
        self.open[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, name: str) -> None:
        end = time.perf_counter()
        _, start, covered = self._stack.pop()
        self.open[name] -= 1
        duration = end - start
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = _SpanStats()
        stats.calls += 1
        stats.total += duration
        stats.self_time += duration - covered
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.edges[(parent[0] if parent else "query", name)] += 1

    def _under_reasoning(self) -> bool:
        return any(self.open[name] for name in REASONING_SPANS)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name)

        return wrapper

    def _msets(self, fn):
        tracer = self
        name = "sufficiency.minimal_sufficient_sets"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.open["engine.chain_for"]:
                tracer.counts["engine.chain_for.msets_calls"] += 1
            tracer._enter(name)
            try:
                found = fn(*args, **kwargs)
            finally:
                tracer._exit(name)
            tracer.counts["sufficiency.sets_found"] += len(found)
            return found

        return wrapper

    def _graph(self, fn):
        tracer = self
        span = self._span("sufficiency.direct_cause_graph", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._under_reasoning():
                tracer.counts["reasoning.graph_rebuilds"] += 1
            return span(*args, **kwargs)

        return wrapper

    def _solve(self, fn):
        counts = self.counts
        open_spans = self.open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["model.solve"] += 1
            if open_spans["normality.plan_abnormality"]:
                counts["normality.worlds"] += 1
            if open_spans["comparators.hph_causes"]:
                counts["comparators.worlds"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _settings(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for setting in fn(*args, **kwargs):
                counts["model.settings"] += 1
                yield setting

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name across the loaded package modules."""
        if self._rebound:
            raise RuntimeError("tracer is already installed")
        plan: list[tuple[object, object]] = []
        for name, (module, attr) in SPAN_FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            if name == "sufficiency.minimal_sufficient_sets":
                wrapped = self._msets(original)
            elif name == "sufficiency.direct_cause_graph":
                wrapped = self._graph(original)
            else:
                wrapped = self._span(name, original)
            plan.append((original, wrapped))
        for name, (module, attr) in COUNTED_FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            if name == "model.solve":
                wrapped = self._solve(original)
            else:
                wrapped = self._counted(name, original)
            plan.append((original, wrapped))
        module, attr = SETTINGS_FUNCTION
        original = getattr(sys.modules[module], attr)
        plan.append((original, self._settings(original)))

        for original, wrapped in plan:
            self._wrappers[id(wrapped)] = wrapped
            for mod in package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapped)
        for name, (module, cls_name, method) in SPAN_METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            wrapped = self._span(name, cls.__dict__[method])
            self._wrappers[id(wrapped)] = wrapped
            self._rebind(cls, method, wrapped)

    def _rebind(self, owner: object, attr: str, wrapped: object) -> None:
        self._rebound.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every rebound name, newest first."""
        while self._rebound:
            owner, attr, original = self._rebound.pop()
            setattr(owner, attr, original)

    def leftover_wrappers(self) -> list[str]:
        """Names in the package that still refer to one of this tracer's
        wrappers (empty after a clean ``uninstall``)."""
        found = []
        for mod in package_modules():
            for attr, value in vars(mod).items():
                if id(value) in self._wrappers:
                    found.append(f"{mod.__name__}.{attr}")
                if isinstance(value, type):
                    for method, member in vars(value).items():
                        if id(member) in self._wrappers:
                            found.append(f"{mod.__name__}.{attr}.{method}")
        return sorted(set(found))

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of the traced pass, by benchmark name."""

        def span(name: str) -> _SpanStats:
            return self.spans.get(name, _SpanStats())

        def ms(seconds: float) -> float:
            return seconds * 1000.0

        out: dict[str, float] = {
            "dsl.parse_case.calls": span("dsl.parse_case").calls,
            "dsl.parse_case.self_ms": ms(span("dsl.parse_case").self_time),
            "model.Model.builds": span("model.Model").calls,
            "model.Model.build_ms": ms(span("model.Model").total),
            "model.reduced_model.calls": self.counts["model.reduced_model"],
            "model.solve.calls": self.counts["model.solve"],
            "model.settings": self.counts["model.settings"],
        }
        msets = span("sufficiency.minimal_sufficient_sets")
        is_sufficient = self.counts["sufficiency.is_sufficient"]
        found = self.counts["sufficiency.sets_found"]
        graph = span("sufficiency.direct_cause_graph")
        abnormality = span("normality.plan_abnormality")
        chain = span("engine.chain_for")
        hph = span("comparators.hph_causes")
        out.update(
            {
                "sufficiency.minimal_sufficient_sets.calls": msets.calls,
                "sufficiency.minimal_sufficient_sets.self_ms": ms(msets.self_time),
                "sufficiency.is_sufficient.calls": is_sufficient,
                "sufficiency.sets_found": found,
                "sufficiency.hit_ratio": found / is_sufficient if is_sufficient else 0.0,
                "sufficiency.direct_cause_graph.calls": graph.calls,
                "sufficiency.direct_cause_graph.self_ms": ms(graph.self_time),
                "sufficiency.direct_cause_sets.calls": span(
                    "sufficiency.direct_cause_sets"
                ).calls,
                "normality.plan_abnormality.calls": abnormality.calls,
                "normality.plan_abnormality.self_ms": ms(abnormality.self_time),
                "normality.worlds": self.counts["normality.worlds"],
                "engine.analyze_ms": ms(span("engine.analyze").total),
                "engine.chain_for.calls": chain.calls,
                "engine.chain_for.ms": ms(chain.total),
                "engine.chain_for.msets_calls": self.counts["engine.chain_for.msets_calls"],
                "comparators.hph_causes.calls": hph.calls,
                "comparators.hph_causes.ms": ms(hph.total),
                "comparators.worlds": self.counts["comparators.worlds"],
            }
        )
        for name in REASONING_SPANS:
            stats = span(name)
            out[f"{name}.calls"] = stats.calls
            out[f"{name}.ms"] = ms(stats.total)
        out["reasoning.graph_rebuilds"] = self.counts["reasoning.graph_rebuilds"]
        return out

    def counts_only(self) -> dict[str, int]:
        """Every deterministic count of the pass (calls, counters and parent
        edges), for repeatability checks."""
        out = {f"{name}.calls": stats.calls for name, stats in self.spans.items()}
        out.update(self.counts)
        out.update({f"{parent} > {child}": n for (parent, child), n in self.edges.items()})
        return dict(sorted(out.items()))


def package_modules() -> list:
    """The loaded ``actualcause`` package and its submodules."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
