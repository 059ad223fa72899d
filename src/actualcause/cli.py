"""Command-line interface.

Exit codes for ``check``: 0 when the computed causes match the recorded
intuition (or no intuition is recorded), 1 on a mismatch.  ``bench`` exits
the same way over its cases, and 2 when the ``--out`` file cannot be written.
Every command exits 2 on a parse error and 3 when a search exceeds
ENUMERATION_CAP.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path

import click

from .bench import FORMATS, _set_text, render_report, run_bench
from .comparators import hph_causes
from .dsl import ParseError, read_case
from .engine import EngineOptions, analyze, intentional_causes
from .model import Event, Scenario, SearchTooLargeError
from .verification import run_verify

__all__ = ["main"]


class _Main(click.Group):
    """The command group: the one place an input error gets its exit code."""

    def invoke(self, ctx: click.Context) -> object:
        try:
            return super().invoke(ctx)
        except ParseError as err:
            click.echo(f"parse error: {err}", err=True)
            sys.exit(2)
        except SearchTooLargeError as err:
            click.echo(f"search too large: {err}", err=True)
            sys.exit(3)


@click.group(cls=_Main)
def main() -> None:
    """Actual-causation analysis over deterministic structural models."""


@main.command()
@click.argument("case_file", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--definition",
    type=click.Choice(["primary", "hph", "all"]),
    default="primary",
    show_default=True,
    help="Which cause definition(s) to evaluate.",
)
@click.option(
    "--variant",
    type=click.Choice(EngineOptions.VARIANTS),
    default="3",
    show_default=True,
    help="Abnormality clause variant (3prime contrasts one event at a time).",
)
@click.option(
    "--mode",
    type=click.Choice(Scenario.MODES),
    default=None,
    help="Override the scenario's declared mode.",
)
@click.option("--verbose", is_flag=True, help="Show plans, chains, reasons and contrast sets.")
def check(case_file: str, definition: str, variant: str, mode: str | None, verbose: bool) -> None:
    """Analyze a single case file and compare against its intuition."""
    mismatch = False
    case = read_case(case_file)
    options = EngineOptions(abnormality_variant=variant)
    scenario = case.scenario if mode is None else replace(case.scenario, mode=mode)
    if definition in ("primary", "all"):
        causes = intentional_causes(scenario, case.effect, options)
        click.echo(f"causes: {_set_text(causes, ', ')}")
        if verbose:
            analysis = analyze(scenario, case.effect, options)
            for var in sorted(scenario.model.variables):
                if var == case.effect.var:
                    continue
                event = Event(var, scenario.actual_value(var))
                verdict = analysis.verdict_for(event)
                chain = " -> ".join(verdict.chain) if verdict.chain else "-"
                click.echo(
                    f"  {event.render()}: cause={verdict.is_cause} "
                    f"plan={_set_text(verdict.plan, ', ')} chain={chain} "
                    f"({verdict.reason})"
                )
        if case.intuition is not None and causes != case.intuition:
            mismatch = True
    if definition in ("hph", "all"):
        result = hph_causes(scenario, case.effect)
        click.echo(f"contrastive causes: {_set_text(result.events, ', ')}")
        if verbose:
            for verdict in result.verdicts:
                names = ", ".join(sorted(verdict.contrast_set))
                click.echo(f"  {verdict.event.render()}: contrast set {{{names}}}")
        if definition == "hph" and case.intuition is not None:
            if result.events != case.intuition:
                mismatch = True
    if case.intuition is not None:
        click.echo(f"intuition: {_set_text(case.intuition, ', ')}")
    sys.exit(1 if mismatch else 0)


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option(
    "--format",
    "fmt",
    type=click.Choice(list(FORMATS)),
    default="plain",
    show_default=True,
)
@click.option(
    "--out",
    type=click.Path(dir_okay=False),
    default=None,
    help="Write the report to a file instead of stdout.",
)
def bench(directory: str, fmt: str, out: str | None) -> None:
    """Run every case file in a directory and summarize the results."""
    start = time.perf_counter()
    report = run_bench(directory)
    elapsed = time.perf_counter() - start
    text = render_report(report, fmt)
    if out is None:
        click.echo(text, nl=False)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as err:
            click.echo(f"cannot write {out}: {err.strerror}", err=True)
            sys.exit(2)
    click.echo(f"completed in {elapsed:.2f}s", err=True)
    failed = report.primary_mismatches
    sys.exit(1 if failed else 0)


@main.command()
@click.option("--models", type=click.IntRange(min=0), default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
# the oracles search every subset of a model's variables: with 17, a run of
# three models has taken over 45 s
@click.option("--max-vars", type=click.IntRange(2, 16), default=6, show_default=True)
def verify(models: int, seed: int, max_vars: int) -> None:
    """Cross-check the engine against brute-force oracles on random models."""
    start = time.perf_counter()
    report = run_verify(models=models, seed=seed, max_vars=max_vars)
    click.echo(report.render(), nl=False)
    click.echo(f"completed in {time.perf_counter() - start:.2f}s", err=True)
    sys.exit(0 if report.passed else 1)


if __name__ == "__main__":
    main()
