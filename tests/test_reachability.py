"""Every function in ``src/repro`` is reached by a figure or names why it is kept.

The scan runs the figures, the linter and the examples in one
subprocess under the interpreter's profile hook (``sys.setprofile``'s
events, read by cProfile) and collects every code object of
``src/repro`` that was called, keyed ``module:co_qualname``. It then
enumerates with ``ast`` every ``def`` in ``src/repro`` (nested ones
included, keyed the way CPython spells their ``co_qualname``). A
function that is neither reached nor listed in ``reachability_allow.txt``
fails the test, and so does a listed one that no longer exists or that
the runs do reach. Lambdas and ``__repr__`` are exempt.

Each allow-list line is ``module:qualname  reason``, and the reason is
exactly one of ``test oracle``, ``operator surface``, ``system check``
or ``planned use (item N)`` with N a ROADMAP item. See CONTRIBUTING.md
for what to do when the scan fails.

``python tests/test_reachability.py`` prints the scan's verdict
without pytest (``PYTHONPATH=src``).
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO / "src" / "repro"
ALLOW_FILE = Path(__file__).with_name("reachability_allow.txt")
EXEMPT = frozenset({"__repr__"})
REASON = re.compile(
    r"test oracle|operator surface|system check|planned use \(item \d+\)"
)

# Every grid command runs at --jobs 1, so the whole scan stays in one
# process. fig7 needs 0.5 ms phases: at 0.25 ms Boot is still running
# when the CacheFlush phase ends.
_TELEMETRY = ("--metrics-out", "{tmp}/m.jsonl", "--trace-out", "{tmp}/t.json")
CLI_RUNS = (
    ("table2",),
    ("fig12",),
    ("fig7", "--phase-ms", "0.5") + _TELEMETRY,
    ("fig8", "--loads", "222000", "--measure-ms", "0.25", "--jobs", "1")
    + _TELEMETRY,
    ("fig9", "--total-ms", "1.5"),
    ("fig10", "--phase-ms", "20"),
    ("fig11", "--requests", "600", "--jobs", "1") + _TELEMETRY,
)
# It holds a suppressed finding, so the report prints one.
LINTED_FILE = "src/repro/cli.py"
EXAMPLES = tuple(sorted((REPO / "examples").glob("*.py")))


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def defined_functions() -> dict[str, int]:
    """``module:qualname`` -> line of every ``def`` under ``src/repro``."""
    found: dict[str, int] = {}

    def visit(node: ast.AST, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                if child.name not in EXEMPT:
                    found[f"{module}:{qualname}"] = child.lineno
                visit(child, module, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".")
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)),
              module_name(path), "")
    return found


def load_allow_list() -> dict[str, str]:
    """``module:qualname`` -> reason, from ``reachability_allow.txt``."""
    entries: dict[str, str] = {}
    for number, line in enumerate(ALLOW_FILE.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, reason = line.partition(" ")
        assert key not in entries, f"line {number}: {key} listed twice"
        entries[key] = reason.strip()
    return entries


def scan(tmp: str) -> set[str]:
    """Run every scan input under the profiler; return the
    ``module:qualname`` of each ``src/repro`` function that was called.

    cProfile hooks the same interpreter profile events as a
    ``sys.setprofile`` function, in C: the scan takes two thirds of the
    time. It starts before the first ``repro`` import, so what runs at
    import time (a dataclass's ``__post_init__`` on a module constant)
    counts as reached.
    """
    profiler = cProfile.Profile()
    sink = io.StringIO()
    profiler.enable()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            from repro.analysis.lint import main as lint_main
            from repro.cli import main as cli_main

            for run in CLI_RUNS:
                status = cli_main([arg.format(tmp=tmp) for arg in run])
                assert status == 0, f"repro {' '.join(run)} exited {status}"
            assert lint_main([str(REPO / LINTED_FILE)]) == 0
            for example in EXAMPLES:
                runpy.run_path(str(example), run_name="__main__")
    finally:
        profiler.disable()
    root = str(PACKAGE_ROOT)
    return {
        f"{module_name(Path(code.co_filename))}:{code.co_qualname}"
        for code in (entry.code for entry in profiler.getstats())
        if not isinstance(code, str) and code.co_filename.startswith(root)
    }


def reached_in_subprocess() -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "reached.json"
        subprocess.run(
            [sys.executable, __file__, "--scan", str(out)],
            cwd=REPO, env=env, check=True, timeout=600,
        )
        return set(json.loads(out.read_text()))


def problems(defined: dict[str, int], allowed: dict[str, str],
             reached: set[str]) -> list[str]:
    """Every way the tree breaks the rule, one line each."""
    found = []
    for key in sorted(defined):
        if key not in reached and key not in allowed:
            found.append(f"unreached and not allow-listed: {key} "
                         f"(line {defined[key]})")
    for key, reason in sorted(allowed.items()):
        if key not in defined:
            found.append(f"allow-listed but not defined: {key}")
        elif key in reached:
            found.append(f"allow-listed but reached: {key}")
        if not REASON.fullmatch(reason):
            found.append(f"allow-list reason is not one of the four: "
                         f"{key} {reason!r}")
    return found


def test_allow_list_reasons_are_well_formed():
    allowed = load_allow_list()
    defined = defined_functions()
    assert [k for k, r in allowed.items() if not REASON.fullmatch(r)] == []
    assert sorted(set(allowed) - set(defined)) == []
    roadmap = (REPO / "ROADMAP.md").read_text()
    for reason in set(allowed.values()):
        item = re.fullmatch(r"planned use \(item (\d+)\)", reason)
        if item:
            assert f"\n### {item[1]}. " in roadmap, f"{reason}: no such item"


@pytest.mark.slow
def test_every_function_is_reached_or_allow_listed():
    assert problems(defined_functions(), load_allow_list(),
                    reached_in_subprocess()) == []


if __name__ == "__main__":
    if sys.argv[1:2] == ["--scan"]:
        with tempfile.TemporaryDirectory() as scratch:
            reached = scan(scratch)
        Path(sys.argv[2]).write_text(json.dumps(sorted(reached), indent=0))
    else:
        report = problems(defined_functions(), load_allow_list(),
                          reached_in_subprocess())
        print("\n".join(report) or "every function is reached or allow-listed")
        sys.exit(1 if report else 0)
