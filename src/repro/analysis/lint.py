"""Simulation-safety linter: four AST checks the reproduction relies on.

========  =====================================================
DET001    wall-clock read (simulated code must use ``engine.now``)
DET002    process-global randomness (use a ``DeterministicRng`` stream)
EVT003    ``heapq`` import (schedule through the engine)
EXC001    bare or broad ``except`` without a re-raise
========  =====================================================

``RULES`` maps each id to its check and to the path fragments where
the rule does not apply: the runner measures wall-clock time,
``sim.rng`` wraps ``random``, the engine is the event queue, and tests
and benchmarks time things and seed their own generators.

The only way to quiet a finding is a suppression comment::

    t0 = time.perf_counter_ns()  # simlint: disable=DET001 -- profiler

An inline comment covers its own line; a comment on its own line covers
the next code line; ``# simlint: disable`` with no rule list covers
every rule. Text after ``--`` is the justification.

``python -m repro.analysis [paths...]`` lints ``src/repro``, ``tests``
and ``benchmarks`` by default, prints every finding (suppressed ones
tagged), and exits 1 if any finding is not suppressed. Files and
findings are visited in sorted order, so the report is byte-identical
across runs.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

DEFAULT_PATHS = ("src/repro", "tests", "benchmarks")

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})
_GLOBAL_RNG_PREFIXES = ("random.", "uuid.uuid", "secrets.")
_SEEDED_RNG = frozenset({"random.Random", "random.SystemRandom"})
_BROAD = frozenset({"Exception", "BaseException"})

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable(?:=(?P<rules>[A-Z0-9_,\s]+))?")
_NON_CODE = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
})


@dataclass
class Finding:
    rule: str
    path: str  # posix path relative to the lint root
    line: int
    col: int
    message: str
    suppressed: bool = False

    def __str__(self) -> str:
        tag = "  [suppressed]" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}  {self.rule}  {self.message}{tag}"


class Module:
    """One parsed file plus its import-alias map."""

    def __init__(self, source: str):
        self.tree = ast.parse(source)
        self.imports: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    head = alias.name.split(".")[0]
                    self.imports[alias.asname or head] = \
                        alias.name if alias.asname else head
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain, through import aliases
        (``from time import perf_counter as pc`` makes ``pc`` resolve to
        ``time.perf_counter``); None for anything else."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.imports.get(node.id, node.id))
        return ".".join(reversed(parts))

    def loaded_names(self) -> Iterator[tuple[ast.AST, str]]:
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.Attribute, ast.Name)) \
                    and isinstance(node.ctx, ast.Load):
                resolved = self.resolve(node)
                if resolved is not None:
                    yield node, resolved


Check = Callable[[Module], Iterator[tuple[ast.AST, str]]]


def wall_clock(module: Module) -> Iterator[tuple[ast.AST, str]]:
    """A host-clock read makes event timing depend on the machine."""
    for node, name in module.loaded_names():
        if name in _WALL_CLOCK:
            yield node, (f"{name} reads the host clock; simulated code must "
                         f"use engine.now (wall-clock belongs in runner/ and "
                         f"benchmarks/)")


def global_randomness(module: Module) -> Iterator[tuple[ast.AST, str]]:
    """Unseeded or globally seeded randomness makes runs irreproducible."""
    for node, name in module.loaded_names():
        if name not in _SEEDED_RNG and (
            name == "os.urandom" or name.startswith(_GLOBAL_RNG_PREFIXES)
        ):
            yield node, (f"{name} is process-global randomness; draw from a "
                         f"named DeterministicRng child stream (repro.sim.rng) "
                         f"instead")


def raw_event_queue(module: Module) -> Iterator[tuple[ast.AST, str]]:
    """A private heap bypasses the engine's FIFO-within-timestamp order."""
    for node in ast.walk(module.tree):
        if (isinstance(node, ast.Import)
                and any(alias.name == "heapq" for alias in node.names)) \
                or (isinstance(node, ast.ImportFrom) and node.module == "heapq"):
            yield node, ("heapq import: schedule through engine.post/post_at, "
                         "not a private heap")


def broad_except(module: Module) -> Iterator[tuple[ast.AST, str]]:
    """A broad handler turns a determinism bug into a silently wrong figure."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield node, ("bare except catches KeyboardInterrupt and "
                         "SystemExit; name the expected exceptions")
        elif isinstance(node.type, ast.Name) and node.type.id in _BROAD and not any(
            isinstance(inner, ast.Raise) and inner.exc is None
            for inner in ast.walk(node)
        ):
            yield node, (f"except {node.type.id} without re-raise swallows "
                         f"unexpected failures; narrow it or re-raise")


# rule id -> (check, posix-path fragments where the rule does not apply)
RULES: dict[str, tuple[Check, tuple[str, ...]]] = {
    "DET001": (wall_clock, ("repro/runner/", "tests/", "benchmarks/")),
    "DET002": (global_randomness, ("repro/sim/rng.py", "tests/", "benchmarks/")),
    "EVT003": (raw_event_queue, ("repro/sim/engine.py",)),
    "EXC001": (broad_except, ()),
}


def _suppressions(source: str) -> dict[int, Optional[frozenset[str]]]:
    """Line number -> suppressed rule ids (None means every rule)."""
    out: dict[int, Optional[frozenset[str]]] = {}
    code_lines: set[int] = set()
    comments: list[tuple[int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.string))
            elif tok.type not in _NON_CODE:
                code_lines.add(tok.start[0])
    except tokenize.TokenError:
        return out
    ordered = sorted(code_lines)
    for line, text in comments:
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        if line not in code_lines:
            idx = bisect_right(ordered, line)
            if idx == len(ordered):
                continue
            line = ordered[idx]
        raw = match.group("rules")
        previous = out.get(line, frozenset())
        if raw is None or previous is None:
            out[line] = None
        else:
            out[line] = previous | {r.strip() for r in raw.split(",") if r.strip()}
    return out


def lint_source(source: str, path: str = "snippet.py") -> list[Finding]:
    """Every finding in one file's source, suppressed ones included."""
    try:
        module = Module(source)
    except SyntaxError as exc:
        return [Finding("PARSE", path, exc.lineno or 1, (exc.offset or 0) + 1,
                        f"could not parse: {exc.msg}")]
    suppressions = _suppressions(source)
    findings = []
    for rule, (check, exempt) in RULES.items():
        if any(fragment in path for fragment in exempt):
            continue
        for node, message in check(module):
            line = node.lineno
            quiet = suppressions.get(line, frozenset())
            findings.append(Finding(rule, path, line, node.col_offset + 1, message,
                                    suppressed=quiet is None or rule in quiet))
    return findings


def lint_paths(paths: Sequence[str], root: Path | str = ".") -> tuple[int, list[Finding]]:
    """``(files linted, sorted findings)`` for files and directories under
    ``root``; paths in findings are relative to ``root``."""
    root = Path(root).resolve()
    files: dict[str, Path] = {}
    for path in paths:
        base = root / path
        for file in [base] if base.is_file() else base.rglob("*.py"):
            file = file.resolve()
            try:
                display = file.relative_to(root).as_posix()
            except ValueError:
                display = file.as_posix()
            files.setdefault(display, file)
    findings: list[Finding] = []
    for display in sorted(files):
        findings += lint_source(files[display].read_text(encoding="utf-8"), display)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return len(files), findings


def report(files: int, findings: Sequence[Finding]) -> str:
    suppressed = sum(f.suppressed for f in findings)
    lines = [str(f) for f in findings]
    lines.append(f"{files} files: {len(findings) - suppressed} unsuppressed "
                 f"findings, {suppressed} suppressed")
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Lint ``argv`` (default: the repo's three trees); 1 on any
    unsuppressed finding, 2 on a path that does not exist."""
    paths = list(sys.argv[1:] if argv is None else argv)
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"no such file or directory: {', '.join(missing)}", file=sys.stderr)
        return 2
    files, findings = lint_paths(paths or [p for p in DEFAULT_PATHS if Path(p).exists()])
    sys.stdout.write(report(files, findings))
    return 1 if any(not f.suppressed for f in findings) else 0
