"""Every name a module exports in `__all__` resolves, so `from actualcause
import *` works and no export outlives the name it refers to."""

from __future__ import annotations

import importlib
import pkgutil

import actualcause


def test_every_exported_name_resolves():
    modules = [actualcause] + [
        importlib.import_module(f"actualcause.{info.name}")
        for info in pkgutil.iter_modules(actualcause.__path__)
    ]
    for module in modules:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_star_import():
    namespace: dict[str, object] = {}
    exec("from actualcause import *", namespace)
    assert set(actualcause.__all__) <= set(namespace)
