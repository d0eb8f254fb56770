"""The simulation-safety linter: rules, suppressions, baseline, reporters.

The per-rule fixtures are not hand-copied snippets: every rule's
docstring carries a ``Bad::``/``Good::`` pair and the tests here lint
exactly what the docstring shows, so documentation and enforcement
cannot drift apart.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import (
    Baseline,
    LintTarget,
    Severity,
    all_rules,
    check_tree,
    get_profile,
    lint_source,
    rule_examples,
    run_lint,
)
from repro.analysis.lint.reporters import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent

RULES = all_rules()
RULE_IDS = [rule.id for rule in RULES]


def rule_hits(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


# -- the rule pack: every docstring example, executed both ways --------------


def test_rule_pack_is_complete():
    assert RULE_IDS == sorted(RULE_IDS)
    families = {rid[:3] for rid in RULE_IDS}
    assert families == {"DET", "EVT", "TEL", "EXC"}
    assert len(RULE_IDS) == 10


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_bad_example_trips_the_rule(rule):
    examples = rule_examples(rule)
    assert "bad" in examples, f"{rule.id} docstring is missing a Bad:: block"
    findings = lint_source(examples["bad"], profile="sim")
    assert rule_hits(findings, rule.id), (
        f"{rule.id} did not fire on its own bad example:\n{examples['bad']}"
    )


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_good_example_is_clean(rule):
    examples = rule_examples(rule)
    assert "good" in examples, f"{rule.id} docstring is missing a Good:: block"
    findings = lint_source(examples["good"], profile="sim")
    assert not rule_hits(findings, rule.id), (
        f"{rule.id} fired on its own good example:\n{examples['good']}"
    )


def test_broad_except_with_reraise_is_clean():
    findings = lint_source(
        "try:\n"
        "    frob()\n"
        "except Exception:\n"
        "    cleanup()\n"
        "    raise\n"
    )
    assert not rule_hits(findings, "EXC001")


def test_import_aliases_are_resolved():
    findings = lint_source(
        "from time import perf_counter as pc\n"
        "def f():\n"
        "    return pc()\n"
    )
    assert rule_hits(findings, "DET001")


# -- suppressions ------------------------------------------------------------


def test_inline_suppression_quiets_the_finding():
    findings = lint_source(
        "import time\n"
        "def f():\n"
        "    return time.time()  # simlint: disable=DET001 -- test\n"
    )
    hits = rule_hits(findings, "DET001")
    assert hits and all(f.suppressed for f in hits)


def test_standalone_suppression_covers_next_code_line():
    findings = lint_source(
        "import time\n"
        "def f():\n"
        "    # simlint: disable=DET001 -- justification line one\n"
        "    # (which continues on a second comment line)\n"
        "    return time.time()\n"
    )
    hits = rule_hits(findings, "DET001")
    assert hits and all(f.suppressed for f in hits)


def test_suppression_is_rule_specific():
    findings = lint_source(
        "import time\n"
        "def f():\n"
        "    return time.time()  # simlint: disable=EVT003\n"
    )
    hits = rule_hits(findings, "DET001")
    assert hits and all(not f.suppressed for f in hits)


def test_bare_disable_suppresses_all_rules():
    findings = lint_source(
        "import time\n"
        "def f():\n"
        "    return time.time()  # simlint: disable\n"
    )
    assert all(f.suppressed for f in rule_hits(findings, "DET001"))


# -- baseline round-trip -----------------------------------------------------


BAD_MODULE = (
    "import time\n"
    "\n"
    "def sample():\n"
    "    return time.time()\n"
)


def test_baseline_round_trip(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "mod.py").write_text(BAD_MODULE)
    targets = [LintTarget("pkg", "sim")]

    first = run_lint(targets, root=tmp_path)
    assert len(first.active) == 1

    baseline = Baseline.from_findings(first.findings)
    baseline_file = tmp_path / "lint-baseline.json"
    assert baseline.dump(baseline_file) == 1

    second = run_lint(targets, root=tmp_path,
                      baseline=Baseline.load(baseline_file))
    assert not second.active
    assert len(second.baselined) == 1

    # A *new* finding in the same file is not grandfathered.
    (src / "mod.py").write_text(BAD_MODULE + "\ndef again():\n"
                                "    return time.perf_counter()\n")
    third = run_lint(targets, root=tmp_path,
                     baseline=Baseline.load(baseline_file))
    assert len(third.active) == 1
    assert third.active[0].scope == "again"


def test_baseline_notes_survive_regeneration(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "mod.py").write_text(BAD_MODULE)
    result = run_lint([LintTarget("pkg", "sim")], root=tmp_path)
    baseline = Baseline.from_findings(result.findings)
    key = next(iter(baseline.entries))
    baseline.notes[key] = "tracking: example"
    regenerated = Baseline.from_findings(result.findings, previous=baseline)
    assert regenerated.notes[key] == "tracking: example"


# -- reporters ---------------------------------------------------------------


def _repo_result():
    baseline = Baseline.load_or_empty(REPO_ROOT / "lint-baseline.json")
    targets = [
        LintTarget("src/repro", "sim"),
        LintTarget("tests", "tests"),
        LintTarget("benchmarks", "tests"),
    ]
    return run_lint(targets, root=REPO_ROOT, baseline=baseline)


def test_repo_lint_output_is_deterministic():
    first = _repo_result()
    second = _repo_result()
    assert render_text(first, verbose=True) == render_text(second, verbose=True)
    assert json.dumps(render_json(first, strict=True), sort_keys=True) == \
        json.dumps(render_json(second, strict=True), sort_keys=True)


def test_json_report_schema():
    report = render_json(_repo_result(), strict=True)
    assert report["version"] == 1
    assert set(report) == {
        "version", "profiles", "strict", "rules", "findings",
        "baselined", "suppressed", "summary", "failed",
    }
    assert report["profiles"] == ["sim", "tests"]
    for row in report["rules"]:
        assert set(row) == {"id", "severity", "title"}
        assert row["severity"] in ("info", "warning", "error")
    for finding in report["findings"] + report["baselined"] + report["suppressed"]:
        assert set(finding) == {
            "rule", "severity", "path", "line", "col", "scope", "message",
        }
        assert isinstance(finding["line"], int) and finding["line"] >= 1
    summary = report["summary"]
    assert set(summary) == {
        "files", "active", "errors", "warnings", "baselined", "suppressed",
    }
    # Findings arrive sorted by location.
    locations = [(f["path"], f["line"], f["col"]) for f in report["findings"]]
    assert locations == sorted(locations)


# -- the repo holds its own bar (self-check) ---------------------------------


def test_repo_is_lint_clean_strict():
    result = _repo_result()
    assert not result.active, "\n" + render_text(result)


def test_linter_own_source_is_clean_under_sim_profile():
    result = run_lint([LintTarget("src/repro/analysis", "sim")],
                      root=REPO_ROOT)
    assert not result.active, "\n" + render_text(result)


def test_tests_and_benchmarks_use_looser_profile():
    loose = get_profile("tests")
    strict = get_profile("sim")
    assert set(loose.rules) < set(strict.rules)
    # Wall-clock measurement is legitimate in benchmarks.
    assert "DET001" not in loose.rules
    # Event-model structure still holds everywhere.
    assert "EVT003" in loose.rules


def test_gate_is_clear_on_this_tree():
    assert check_tree(REPO_ROOT) == []


# -- severity / failure policy ----------------------------------------------


def test_strict_fails_on_warnings_default_does_not(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "mod.py").write_text(
        "try:\n"
        "    frob()\n"
        "except Exception:\n"
        "    pass\n"
    )
    result = run_lint([LintTarget("pkg", "sim")], root=tmp_path)
    assert result.active[0].severity == Severity.WARNING
    assert result.failed(strict=True)
    assert not result.failed(strict=False)


# -- CLI end-to-end ----------------------------------------------------------


def _run_cli(args, cwd):
    env_src = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, cwd=cwd,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )


@pytest.mark.slow
def test_cli_strict_clean_and_byte_identical():
    first = _run_cli(["--strict"], REPO_ROOT)
    second = _run_cli(["--strict"], REPO_ROOT)
    assert first.returncode == 0, first.stdout + first.stderr
    assert first.stdout == second.stdout


@pytest.mark.slow
def test_cli_fails_on_injected_bad_fixture(tmp_path):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "mod.py").write_text(BAD_MODULE)
    proc = _run_cli(["--strict"], tmp_path)
    assert proc.returncode == 1
    assert "DET001" in proc.stdout
