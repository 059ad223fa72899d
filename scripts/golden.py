#!/usr/bin/env python3
"""Write the golden outputs that tests/test_acceptance.py compares against.

`tests/data/bench.<format>` holds `actualcause bench` over the shipped corpus
in each report format of `bench.FORMATS`, `tests/data/verify.txt` the report of
`run_verify(1000)`, and `tests/data/check.txt` the stdout and exit code of
`actualcause check --definition all --verbose` on each corpus case.
Regenerate them only when a change means to alter these outputs, and say why
in CHANGES.md:

    PYTHONPATH=src python scripts/golden.py
"""

from __future__ import annotations

import importlib.resources
from pathlib import Path

from click.testing import CliRunner

from actualcause.bench import FORMATS, render_report, run_bench
from actualcause.cli import main as cli
from actualcause.verification import run_verify

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"
CORPUS = Path(str(importlib.resources.files("actualcause"))) / "corpus"


def check_report() -> str:
    """`check --definition all --verbose` on every corpus case, in file
    order: a header naming the case, its stdout, and its exit code."""
    runner = CliRunner()
    parts = []
    for path in sorted(CORPUS.glob("*.case")):
        result = runner.invoke(cli, ["check", str(path), "--definition", "all", "--verbose"])
        parts.append(f"== {path.name}\n{result.stdout}exit {result.exit_code}\n")
    return "".join(parts)


def main() -> None:
    report = run_bench(CORPUS)
    for fmt in FORMATS:
        (DATA / f"bench.{fmt}").write_bytes(render_report(report, fmt).encode("utf-8"))
    (DATA / "verify.txt").write_bytes(run_verify(models=1000).render().encode("utf-8"))
    (DATA / "check.txt").write_bytes(check_report().encode("utf-8"))


if __name__ == "__main__":
    main()
