"""Release acceptance gates.

One test per criterion; each prints a single verdict line. The benchmark
report and the 1000-model verification report are computed once and shared.
Criterion 6c (extrapolation never decreases chain distance) states a claim
that is false for this operation family; the test asserts it anyway and is
expected to fail with the counterexamples in its message — see the README.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import pytest

from actualcause import (
    EngineOptions,
    Event,
    causes_of,
    intentional_causes,
    parse_case,
    serialize_case,
)
from actualcause.bench import render_report, run_bench
from actualcause.verification import run_verify

from conftest import corpus_dir, make_scenario

RAW_MISMATCH_IDS = {
    "03", "06", "11", "14", "20", "21", "22", "23", "24",
    "25", "28", "29", "33", "40", "43", "52", "53", "62",
}
ADJUSTED_MISMATCH_IDS = {"21", "22", "28", "29", "33", "43", "52", "53", "62"}
GOLDEN = Path(__file__).resolve().parent / "data"
BENCH_FORMATS = ("plain", "json", "csv", "md")
GOLDEN_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"


def golden_script():
    spec = importlib.util.spec_from_file_location("golden", GOLDEN_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_run():
    start = time.perf_counter()
    report = run_bench(corpus_dir())
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def verify_run():
    start = time.perf_counter()
    report = run_verify(models=1000, seed=0, max_vars=6)
    return report, time.perf_counter() - start


def section(report, fragment: str):
    for sec in report.sections:
        if fragment in sec.name:
            return sec
    raise AssertionError(f"no verification section matching {fragment!r}")


def test_criterion_1_benchmark_primary_verdicts(bench_run):
    report, elapsed = bench_run
    mismatched = [r.case.id for r in report.primary_mismatches]
    line = (
        f"criterion 1: {'PASS' if not mismatched else 'FAIL'} — "
        f"{len(report.results)} cases, {len(mismatched)} primary mismatches, "
        f"{elapsed:.2f}s"
    )
    print(line)
    assert len(report.results) == 66
    assert mismatched == [], f"primary verdicts diverge on {mismatched}"
    assert elapsed < 60.0, f"benchmark took {elapsed:.1f}s (budget 60s)"


def test_criterion_2_contrastive_aggregates_and_deviation_list(bench_run):
    report, _ = bench_run
    raw = {r.case.id for r in report.contrastive_raw_mismatches}
    adjusted = {r.case.id for r in report.contrastive_adjusted_mismatches}
    print(
        f"criterion 2: {'PASS' if (len(raw), len(adjusted)) == (18, 9) else 'FAIL'}"
        f" — contrastive mismatches raw={len(raw)} adjusted={len(adjusted)}"
    )
    assert raw == RAW_MISMATCH_IDS, f"raw mismatch set changed: {sorted(raw)}"
    assert adjusted == ADJUSTED_MISMATCH_IDS, (
        f"adjusted mismatch set changed: {sorted(adjusted)}"
    )
    # Every per-case deviation from the recorded column is reported, each
    # computed-extra event with a concrete witness and each underivable
    # recorded event with an explicit note.
    rendered = render_report(report, "plain")
    assert "deviations from the recorded contrastive column:" in rendered
    for result in report.results:
        if not result.printed_deviation:
            continue
        recorded = result.recorded_contrastive or frozenset()
        witnessed = {v.event for v in result.contrastive_verdicts}
        extra = result.contrastive - recorded
        assert extra <= witnessed, f"case {result.case.id}: unwitnessed extras"
        assert f"  {result.case.id}: computed" in rendered
        if recorded - result.contrastive:
            marker = f"  {result.case.id}: computed"
            tail = rendered[rendered.index(marker) :]
            assert "recorded but not derivable" in tail.splitlines()[1]


def test_criterion_3_worked_examples_exact():
    poisoning = make_scenario(
        "ai=1; bi=1; a=ai; b=bi & a; e=~a & b",
        intentions=(("ai", "a"), ("bi", "b")),
    )
    poisoning_causes = intentional_causes(poisoning, Event("e", 0))
    switch = make_scenario(
        "ji=1; ki=1; j=ji; k=ki & ~j; e=(j & ~k) | (~j & k)",
        intentions=(("ji", "j"), ("ki", "k")),
    )
    switch_causes = intentional_causes(switch, Event("e", 1))
    expected_switch = frozenset({Event("j", 1), Event("ji", 1)})
    ok = poisoning_causes == frozenset() and switch_causes == expected_switch
    print(f"criterion 3: {'PASS' if ok else 'FAIL'} — worked examples exact")
    assert poisoning_causes == frozenset(), (
        f"careful poisoning: expected no causes, got {sorted(poisoning_causes)}"
    )
    assert switch_causes == expected_switch, (
        f"dual switch: expected exactly the operating action and its "
        f"intention, got {sorted(switch_causes)}"
    )


def test_criterion_4_single_event_variant_restriction(corpus_cases):
    strict_options = EngineOptions(abnormality_variant="3prime")
    excluded = 0
    for case in corpus_cases.values():
        full = causes_of(case.scenario, case.effect)
        strict = causes_of(case.scenario, case.effect, strict_options)
        assert strict <= full, f"case {case.id}: variant is not a restriction"
        if case.omission_flag:
            at_default = {
                ev
                for ev in case.intuition
                if ev.value == case.scenario.defaults[ev.var]
            }
            assert at_default, f"case {case.id}: flagged without omission causes"
            overlap = strict & at_default
            assert not overlap, (
                f"case {case.id}: variant retains omission causes {overlap}"
            )
            excluded += len(at_default)
    print(
        f"criterion 4: PASS — variant restricted on all 66 cases, "
        f"{excluded} flagged omission causes excluded"
    )


def test_criterion_5_engine_matches_brute_force(verify_run):
    report, elapsed = verify_run
    sec = section(report, "engine vs oracle (sufficient sets")
    print(
        f"criterion 5: {'PASS' if sec.passed else 'FAIL'} — "
        f"{sec.checked} equivalence checks over {report.models} random "
        f"models, {len(sec.failures)} failures, {elapsed:.1f}s"
    )
    assert report.models >= 1000
    assert sec.checked >= 1000
    assert sec.failures == [], "\n".join(sec.failures[:5])
    assert elapsed < 300.0, f"verification took {elapsed:.1f}s (budget 300s)"


def test_criterion_5_general_mode_sufficient_sets_match_brute_force(verify_run):
    report, _ = verify_run
    sec = section(report, "sufficient sets, general mode")
    print(
        f"criterion 5 (general mode): {'PASS' if sec.passed else 'FAIL'} — "
        f"{sec.checked} sufficient-set checks over {report.models} random "
        f"models, {len(sec.failures)} failures"
    )
    assert sec.checked == report.models
    assert sec.failures == [], "\n".join(sec.failures[:5])


def test_criterion_5b_comparator_matches_brute_force(verify_run):
    report, _ = verify_run
    sec = section(report, "contrastive comparator")
    print(
        f"criterion 5b: {'PASS' if sec.passed else 'FAIL'} — "
        f"{sec.checked} contrastive checks over {report.models} random "
        f"models, {len(sec.failures)} failures"
    )
    assert sec.checked == report.models
    assert sec.failures == [], "\n".join(sec.failures[:5])


def test_criterion_6a_operation_outputs_stay_sufficient(verify_run):
    report, _ = verify_run
    sec = section(report, "outputs are sufficient")
    print(
        f"criterion 6a: {'PASS' if sec.passed else 'FAIL'} — "
        f"{sec.checked} operation outputs checked"
    )
    assert sec.checked >= 500
    assert sec.failures == [], "\n".join(sec.failures[:5])


def test_criterion_6b_interpolation_monotone(verify_run):
    report, _ = verify_run
    sec = section(report, "interpolation")
    print(
        f"criterion 6b: {'PASS' if sec.passed else 'FAIL'} — "
        f"{sec.checked} interpolation steps checked"
    )
    assert sec.failures == [], "\n".join(sec.failures[:5])


def test_criterion_6c_extrapolation_monotone(verify_run):
    # This claim is false: extrapolation preserves sufficiency but can
    # rebuild a net around an event with no direct-cause chain to the
    # effect, leaving the distance undefined (see test_reasoning's
    # reproducer). The assertion is kept honest rather than weakened.
    report, _ = verify_run
    sec = section(report, "extrapolation")
    print(
        f"criterion 6c: {'PASS' if sec.passed else 'FAIL'} — "
        f"{sec.checked} extrapolation steps, {len(sec.failures)} failures"
    )
    assert sec.failures == [], (
        f"{len(sec.failures)} of {sec.checked} extrapolation steps decreased "
        "or undefined the chain distance; first counterexamples:\n"
        + "\n".join(sec.failures[:3])
    )


def test_criterion_7_normality_comparison_is_partial_order(verify_run):
    report, _ = verify_run
    sec = section(report, "partial order")
    print(
        f"criterion 7: {'PASS' if sec.passed else 'FAIL'} — "
        f"{sec.checked} ordered pairs checked"
    )
    assert sec.checked >= 10_000
    assert sec.failures == [], "\n".join(sec.failures[:5])


def test_criterion_8_serialization_identity(verify_run, corpus_path):
    report, _ = verify_run
    sec = section(report, "round-trips")
    violations = []
    for case_file in sorted(corpus_path.glob("*.case")):
        case = parse_case(case_file.read_text(encoding="utf-8"))
        if parse_case(serialize_case(case)) != case:
            violations.append(case_file.name)
    ok = sec.passed and not violations
    print(
        f"criterion 8: {'PASS' if ok else 'FAIL'} — {sec.checked} random "
        f"round-trips, 66 corpus files, {len(violations)} violations"
    )
    assert sec.checked >= 1000
    assert sec.failures == [], "\n".join(sec.failures[:5])
    assert violations == []


def test_criterion_9_outputs_match_the_golden_files(bench_run, verify_run):
    # The bench report in every format, the 1000-model verification report
    # and `check --definition all --verbose` on every corpus case stay
    # byte-identical unless a change means to alter them; then
    # scripts/golden.py rewrites tests/data.  The check output pins the
    # order of each case's verdicts, which the bench report does not show.
    outputs = {f"bench.{fmt}": render_report(bench_run[0], fmt) for fmt in BENCH_FORMATS}
    outputs["verify.txt"] = verify_run[0].render()
    outputs["check.txt"] = golden_script().check_report()
    changed = [
        name
        for name, text in outputs.items()
        if text.encode("utf-8") != (GOLDEN / name).read_bytes()
    ]
    print(
        f"criterion 9: {'PASS' if not changed else 'FAIL'} — {len(outputs)} "
        f"golden outputs, {len(changed)} changed"
    )
    assert changed == []
