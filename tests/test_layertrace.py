"""The benchmark's layer tracer wraps package names by string; every one of
them must resolve, so a rename that would break `perfbench/run.py --trace 1`
fails here."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    trace = load_layertrace()
    functions = [
        *trace.SPAN_FUNCTIONS.values(),
        *trace.COUNTED_FUNCTIONS.values(),
        trace.SETTINGS_FUNCTION,
    ]
    for module, attr in functions:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for module, cls, method in trace.SPAN_METHODS.values():
        owner = getattr(importlib.import_module(module), cls)
        assert callable(vars(owner).get(method)), (module, cls, method)
