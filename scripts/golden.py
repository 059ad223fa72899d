#!/usr/bin/env python3
"""Write the golden outputs that tests/test_acceptance.py compares against.

`tests/data/bench.<format>` holds `actualcause bench` over the shipped corpus
in each report format, and `tests/data/verify.txt` the report of
`run_verify(1000)`.  Regenerate them only when a change means to alter these
outputs, and say why in CHANGES.md:

    PYTHONPATH=src python scripts/golden.py
"""

from __future__ import annotations

import importlib.resources
from pathlib import Path

from actualcause.bench import render_report, run_bench
from actualcause.verification import run_verify

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"
FORMATS = ("plain", "json", "csv", "md")


def main() -> None:
    report = run_bench(Path(str(importlib.resources.files("actualcause"))) / "corpus")
    for fmt in FORMATS:
        (DATA / f"bench.{fmt}").write_bytes(render_report(report, fmt).encode("utf-8"))
    (DATA / "verify.txt").write_bytes(run_verify(models=1000).render().encode("utf-8"))


if __name__ == "__main__":
    main()
