"""Command-line interface: check, bench, and verify."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from actualcause import hph_causes, intentional_causes
from actualcause.cli import main
from actualcause.dsl import read_case
from actualcause.verification import Section, VerifyReport

from conftest import WIDE_FORMULAS, copy_chain, grouped_conjunction


@pytest.fixture()
def runner():
    return CliRunner()


def case_file(corpus_path, num: str):
    (path,) = corpus_path.glob(f"{num}-*.case")
    return str(path)


# e is the OR of 21 binary constants: its value table alone has 2**21 rows,
# past ENUMERATION_CAP, so the case fails while its model is built
WIDE_TABLE = (
    "case 1\nmode reliable\nformulas: "
    + "; ".join([f"x{i}=0" for i in range(21)] + ["e=" + " | ".join(f"x{i}" for i in range(21))])
    + "\n"
)
WIDE_TABLE_ERROR = (
    "search too large: wide21.case: equation for 'e' has 2097152 parent settings, cap 1048576\n"
)


class TestCheck:
    def test_matching_case_exits_zero(self, runner, corpus_path):
        result = runner.invoke(main, ["check", case_file(corpus_path, "13")])
        assert result.exit_code == 0
        assert "causes:" in result.output
        assert "intuition:" in result.output

    def test_all_definitions(self, runner, corpus_path):
        result = runner.invoke(
            main, ["check", case_file(corpus_path, "13"), "--definition", "all"]
        )
        assert result.exit_code == 0
        assert "contrastive causes:" in result.output

    def test_verbose_shows_verdicts(self, runner, corpus_path):
        result = runner.invoke(
            main, ["check", case_file(corpus_path, "13"), "--verbose"]
        )
        assert result.exit_code == 0
        assert "cause=" in result.output and "chain=" in result.output

    def test_mode_override_reaches_both_definitions(self, runner, corpus_path):
        # In general mode c=1 is no longer a cause of case 01's effect; the
        # comparator reads no mode, so its line is the declared-mode one.
        path = case_file(corpus_path, "01")
        case = read_case(path)
        general = replace(case.scenario, mode="general")
        causes = intentional_causes(general, case.effect)
        contrastive = hph_causes(case.scenario, case.effect).events
        assert causes != intentional_causes(case.scenario, case.effect)
        result = runner.invoke(main, ["check", path, "--definition", "all", "--mode", "general"])
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert lines[0] == f"causes: {', '.join(ev.render() for ev in sorted(causes))}"
        assert lines[1] == (
            f"contrastive causes: {', '.join(ev.render() for ev in sorted(contrastive))}"
        )

    def test_variant_mismatch_exits_one(self, runner, corpus_path):
        # The single-event variant drops the omission cause recorded in the
        # intuition, so the verdict no longer matches the file.
        path = case_file(corpus_path, "03")
        assert runner.invoke(main, ["check", path]).exit_code == 0
        result = runner.invoke(main, ["check", path, "--variant", "3prime"])
        assert result.exit_code == 1

    def test_parse_error_exits_two(self, runner, tmp_path):
        bad = tmp_path / "bad.case"
        bad.write_text("case 1\nmode reliable\n")
        result = runner.invoke(main, ["check", str(bad)])
        assert result.exit_code == 2
        assert "parse error" in result.output

    def test_malformed_domain_exits_two(self, runner, tmp_path):
        bad = tmp_path / "bad.case"
        bad.write_text("case 1\nmode reliable\nformulas: e=1\ndomains: e:{0,1,1}\n")
        result = runner.invoke(main, ["check", str(bad)])
        assert result.exit_code == 2
        assert "domain for 'e'" in result.output

    def test_search_too_large_exits_three(self, runner, tmp_path):
        wide = tmp_path / "wide.case"
        wide.write_text(f"case 1\nmode reliable\nformulas: {WIDE_FORMULAS}\n")
        result = runner.invoke(main, ["check", str(wide)])
        assert result.exit_code == 3
        assert "search too large" in result.output

    def test_value_table_past_the_cap_exits_three(self, runner, tmp_path):
        wide = tmp_path / "wide21.case"
        wide.write_text(WIDE_TABLE)
        result = runner.invoke(main, ["check", str(wide)])
        assert result.exit_code == 3
        assert result.output == WIDE_TABLE_ERROR

    def test_long_sufficient_set_walk_exits_three(self, runner, tmp_path, monkeypatch):
        # The walk for x11=0 has 2**11 candidate masks, past the lowered cap.
        monkeypatch.setattr("actualcause.model.ENUMERATION_CAP", 1 << 10)
        chain = tmp_path / "chain.case"
        chain.write_text(f"case 1\nmode reliable\nformulas: {copy_chain(11)}\neffect: x11=0\n")
        result = runner.invoke(main, ["check", str(chain)])
        assert result.exit_code == 3
        assert "search too large: sufficient-set walk for x11=0" in result.output

    def test_long_contrast_set_walk_exits_three(self, runner, tmp_path):
        # 19 xi and 2 yg off their defaults: 2**21 contrast sets, past the cap
        wide = tmp_path / "wide.case"
        wide.write_text(
            f"case 1\nmode reliable\nformulas: {grouped_conjunction(10, 9)}\neffect: e=1\n"
        )
        result = runner.invoke(main, ["check", "--definition", "hph", str(wide)])
        assert result.exit_code == 3
        assert "search too large: contrast-set walk for e=1 has 2097152" in result.output

    def test_undecodable_file_exits_two(self, runner, tmp_path):
        bad = tmp_path / "bad.case"
        bad.write_bytes(b"\xff\xfecase 1\n")
        result = runner.invoke(main, ["check", str(bad)])
        assert result.exit_code == 2
        assert "parse error: bad.case: not UTF-8 text" in result.output

    def test_byte_order_mark_is_skipped(self, runner, corpus_path, tmp_path):
        marked = tmp_path / "marked.case"
        text = Path(case_file(corpus_path, "13")).read_text(encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        plain = runner.invoke(main, ["check", case_file(corpus_path, "13")])
        result = runner.invoke(main, ["check", str(marked)])
        assert result.exit_code == 0
        assert result.output == plain.output

    def test_missing_file_rejected(self, runner):
        assert runner.invoke(main, ["check", "no-such.case"]).exit_code == 2

    def test_unknown_definition_rejected(self, runner, corpus_path):
        result = runner.invoke(
            main, ["check", case_file(corpus_path, "13"), "--definition", "bogus"]
        )
        assert result.exit_code == 2


class TestBench:
    def test_plain_report(self, runner, corpus_path):
        result = runner.invoke(main, ["bench", str(corpus_path)])
        assert result.exit_code == 0
        assert "66" in result.output

    def test_json_schema(self, runner, corpus_path):
        result = runner.invoke(
            main, ["bench", str(corpus_path), "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.stdout)  # timing note goes to stderr
        assert set(payload) == {"cases", "summary"}
        assert len(payload["cases"]) == 66
        assert payload["summary"]["primary_mismatches"] == 0

    def test_csv_and_md(self, runner, corpus_path):
        for fmt in ("csv", "md"):
            result = runner.invoke(
                main, ["bench", str(corpus_path), "--format", fmt]
            )
            assert result.exit_code == 0
            assert result.output.strip()

    def test_out_writes_file(self, runner, corpus_path, tmp_path):
        target = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "bench",
                str(corpus_path),
                "--format",
                "json",
                "--out",
                str(target),
            ],
        )
        assert result.exit_code == 0
        assert json.loads(target.read_text())["summary"]["cases"] == 66


    def test_unwritable_out_exits_two(self, runner, corpus_path, tmp_path):
        cases = tmp_path / "cases"
        cases.mkdir()
        good = Path(case_file(corpus_path, "13"))
        (cases / good.name).write_text(good.read_text(encoding="utf-8"))
        out = tmp_path / "missing" / "r.txt"
        result = runner.invoke(main, ["bench", str(cases), "--out", str(out)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.output == f"cannot write {out}: No such file or directory\n"
        assert not out.parent.exists()

    def test_undecodable_file_exits_two(self, runner, corpus_path, tmp_path):
        good = Path(case_file(corpus_path, "13"))
        (tmp_path / good.name).write_text(good.read_text(encoding="utf-8"))
        (tmp_path / "99-bad.case").write_bytes(b"\xff\xfe")
        result = runner.invoke(main, ["bench", str(tmp_path)])
        assert result.exit_code == 2
        assert "parse error: 99-bad.case: not UTF-8 text" in result.output

    def test_unreadable_case_exits_two(self, runner, corpus_path, tmp_path):
        good = Path(case_file(corpus_path, "13"))
        (tmp_path / good.name).write_text(good.read_text(encoding="utf-8"))
        (tmp_path / "99-dir.case").mkdir()  # matches the glob, cannot be read
        result = runner.invoke(main, ["bench", str(tmp_path)])
        assert result.exit_code == 2
        assert "parse error: 99-dir.case: cannot read" in result.output

    def test_search_too_large_names_the_file(self, runner, corpus_path, tmp_path):
        good = Path(case_file(corpus_path, "13"))
        (tmp_path / good.name).write_text(good.read_text(encoding="utf-8"))
        (tmp_path / "99-wide.case").write_text(
            f"case 99\nmode reliable\nformulas: {grouped_conjunction(10, 9)}\neffect: e=1\n"
        )
        result = runner.invoke(main, ["bench", str(tmp_path)])
        assert result.exit_code == 3
        assert "search too large: 99-wide.case: sufficient-set walk for e=1 has 2097152" in (
            result.output
        )

    def test_value_table_past_the_cap_exits_three(self, runner, tmp_path):
        (tmp_path / "wide21.case").write_text(WIDE_TABLE)
        result = runner.invoke(main, ["bench", str(tmp_path)])
        assert result.exit_code == 3
        assert result.output == WIDE_TABLE_ERROR


class TestVerify:
    def test_small_run(self, runner):
        result = runner.invoke(
            main, ["verify", "--models", "10", "--seed", "0"]
        )
        assert result.exit_code == 0
        assert "verification:" in result.output
        assert "result:" in result.output

    def test_report_lists_twenty_failures_then_counts_the_rest(self):
        failures = [f"failure {i}" for i in range(23)]
        report = VerifyReport(seed=0, models=1, max_vars=2, sections=[Section("s", 23, failures)])
        lines = report.render().splitlines()
        assert lines[2] == "[FAIL] s: 23 checks, 23 failures"
        assert lines[3:24] == [f"    failure {i}" for i in range(20)] + ["    ... 3 more"]

    @pytest.mark.parametrize(
        "args",
        [
            ["--models", "-3"],
            ["--max-vars", "1"],
            ["--max-vars", "0"],
            ["--max-vars", "-2"],
            ["--max-vars", "17"],
            ["--max-vars", "27"],
        ],
    )
    def test_out_of_range_arguments_are_usage_errors(self, runner, args):
        result = runner.invoke(main, ["verify", *args])
        assert result.exit_code == 2
        assert "Invalid value" in result.output
        assert "result:" not in result.output


def test_module_entry_point_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "actualcause.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert done.returncode == 0
    assert done.stdout.startswith("Usage: ")
