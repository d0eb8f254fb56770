"""The simulation-safety linter: its four rules, exemptions, suppressions
and the repo-wide report."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import DEFAULT_PATHS, RULES, lint_paths, lint_source, report

REPO_ROOT = Path(__file__).resolve().parent.parent

# rule id (pytest id) -> (snippet that must trip the rule, fixed version)
EXAMPLES = {
    "DET001": (
        "import time\n"
        "\n"
        "def service_latency(started_ps):\n"
        "    return time.time() - started_ps\n",
        "def service_latency(engine, started_ps):\n"
        "    return engine.now - started_ps\n",
    ),
    "DET002": (
        "import random\n"
        "\n"
        "def jitter_ps():\n"
        "    return random.randint(0, 100)\n",
        "def jitter_ps(rng):\n"
        "    # rng is a DeterministicRng child stream, e.g. root.child(\"jitter\")\n"
        "    return rng.randint(0, 100)\n",
    ),
    "EVT003": (
        "import heapq\n"
        "\n"
        "class PrivateQueue:\n"
        "    def push(self, when_ps, callback):\n"
        "        heapq.heappush(self.events, (when_ps, callback))\n",
        "class EngineQueue:\n"
        "    def push(self, delay_ps, callback):\n"
        "        self.engine.post(delay_ps, callback)\n",
    ),
    "EXC001": (
        "def run_figure(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except:\n"
        "        return None\n",
        "def run_figure(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except (ValueError, KeyError) as exc:\n"
        "        report_failure(exc)\n"
        "        return None\n",
    ),
}

EXTRA_BAD = {
    "EVT003-from-import": ("EVT003", "from heapq import heappush\n"),
    "EXC001-broad": ("EXC001",
                     "try:\n    frob()\nexcept Exception:\n    pass\n"),
    "EXC001-base": ("EXC001",
                    "try:\n    frob()\nexcept BaseException:\n    log()\n"),
}

# An exemption fragment -> a real file it exempts.
EXEMPT_FILES = {
    "repro/runner/": "src/repro/runner/sweep.py",
    "repro/sim/rng.py": "src/repro/sim/rng.py",
    "repro/sim/engine.py": "src/repro/sim/engine.py",
    "tests/": "tests/test_engine.py",
    "benchmarks/": "benchmarks/bench_engine.py",
}

# rule -> a module under src/repro that must fail the command line
BAD_MODULES = {
    "DET001": "import time\n\ndef sample():\n    return time.time()\n",
    "EVT003": "import heapq\n",
}


def rule_hits(findings, rule_id):
    return [f for f in findings if f.rule == rule_id]


# -- the rules ---------------------------------------------------------------


def test_rule_pack_is_complete():
    assert sorted(RULES) == sorted(EXAMPLES) == ["DET001", "DET002", "EVT003", "EXC001"]


@pytest.mark.parametrize(
    "rule, source",
    [(rule, bad) for rule, (bad, _good) in EXAMPLES.items()] + list(EXTRA_BAD.values()),
    ids=list(EXAMPLES) + list(EXTRA_BAD),
)
def test_bad_example_trips_the_rule(rule, source):
    assert rule_hits(lint_source(source), rule), source


@pytest.mark.parametrize("rule", EXAMPLES)
def test_good_example_is_clean(rule):
    good = EXAMPLES[rule][1]
    assert not rule_hits(lint_source(good), rule), good


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


def test_unparsable_file_is_a_finding():
    [finding] = lint_source("def broken(:\n")
    assert finding.rule == "PARSE" and not finding.suppressed


# -- exemptions --------------------------------------------------------------


@pytest.mark.parametrize(
    "rule, fragment",
    [(rule, fragment) for rule, (_check, exempt) in RULES.items()
     for fragment in exempt],
)
def test_rule_is_silent_under_its_exempt_path(rule, fragment):
    bad = EXAMPLES[rule][0]
    exempt_path = EXEMPT_FILES[fragment]
    assert fragment in exempt_path
    assert not rule_hits(lint_source(bad, exempt_path), rule)
    assert rule_hits(lint_source(bad, "src/repro/cpu/core.py"), rule)


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


# -- the repo holds its own bar ----------------------------------------------


@pytest.fixture(scope="module")
def repo_reports():
    """The repo-wide report, linted twice (the only two full runs here)."""
    runs = [lint_paths(DEFAULT_PATHS, root=REPO_ROOT) for _ in range(2)]
    return runs[0][1], [report(*run) for run in runs]


def test_repo_is_lint_clean_strict(repo_reports):
    # Every unsuppressed finding fails, warnings included.
    findings, (text, _) = repo_reports
    assert not [f for f in findings if not f.suppressed], "\n" + text
    assert sum(f.suppressed for f in findings) == 2, "\n" + text


def test_linter_own_source_is_clean_under_sim_profile():
    # No exemption covers the linter, so it is held to every rule, like
    # simulator code, and needs no suppression to pass.
    target = "src/repro/analysis"
    assert not [frag for _check, exempt in RULES.values() for frag in exempt
                if frag in target + "/lint.py"]
    files, findings = lint_paths([target], root=REPO_ROOT)
    assert files and not findings, "\n" + report(files, findings)


def test_repo_lint_output_is_deterministic(repo_reports):
    first, second = repo_reports[1]
    assert first == second


# -- command line ------------------------------------------------------------


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, cwd=cwd,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


@pytest.mark.slow
def test_cli_clean_and_byte_identical():
    first = _run_cli([], REPO_ROOT)
    second = _run_cli([], REPO_ROOT)
    assert first.returncode == 0, first.stdout + first.stderr
    assert first.stdout == second.stdout


@pytest.mark.parametrize("rule", BAD_MODULES)
def test_cli_fails_on_injected_bad_fixture(tmp_path, rule):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "mod.py").write_text(BAD_MODULES[rule])
    proc = _run_cli([], tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "src/repro/mod.py" in proc.stdout and f"  {rule}  " in proc.stdout


def test_cli_rejects_a_missing_path(tmp_path):
    proc = _run_cli(["--strict"], tmp_path)
    assert proc.returncode == 2
    assert "--strict" in proc.stderr
