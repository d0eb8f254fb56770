"""Rule base class, rule registry and lint profiles.

Every rule is a class with a stable id (``DET001``), a default
severity, and a docstring that doubles as its documentation *and* its
test fixture: the docstring must contain a ``Bad::`` and a ``Good::``
literal block, and the test suite lints both — the bad snippet must
trip the rule, the good one must not. :func:`rule_examples` is the
shared extractor.

Profiles decide which rules run where. The strict ``sim`` profile (all
rules, used on ``src/repro``) carries per-rule path exemptions for the
few modules whose *job* is the hazard (the engine owns the raw event
queue, ``sim.rng`` owns ``random``, the runner measures wall-clock).
The looser ``tests`` profile drops the determinism/telemetry rules that
test and benchmark code legitimately violates (benchmarks time things;
tests poke module state) while keeping the structural ones.
"""

from __future__ import annotations

import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.analysis.lint.findings import Finding, Severity

_RULES: dict[str, "Rule"] = {}


class Rule:
    """One static check. Subclasses set ``id``/``severity``/``title``
    and implement :meth:`check` yielding findings via :meth:`finding`."""

    id: str = ""
    severity: Severity = Severity.ERROR
    title: str = ""

    def check(self, module) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module, node, message: str,
                severity: Severity | None = None) -> Finding:
        """Build a finding anchored at ``node`` inside ``module``."""
        return Finding(
            rule=self.id,
            severity=self.severity if severity is None else severity,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            scope=module.scope_of(node),
        )


def register_rule(cls: type) -> type:
    """Class decorator: instantiate and index the rule by id."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _RULES:
        raise ValueError(f"duplicate rule id {rule.id}")
    _RULES[rule.id] = rule
    return cls


def _ensure_rules_loaded() -> None:
    # Deferred so the registry module stays import-light; the rules
    # package imports this module for the decorator.
    if not _RULES:
        import repro.analysis.lint.rules  # noqa: F401


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id (the iteration order contract)."""
    _ensure_rules_loaded()
    return [_RULES[rid] for rid in sorted(_RULES)]


def get_rule(rule_id: str) -> Rule:
    _ensure_rules_loaded()
    return _RULES[rule_id]


def rule_examples(rule: Rule) -> dict[str, str]:
    """Extract the ``Bad::`` / ``Good::`` snippets from a rule docstring.

    Each marker introduces one indented literal block; the block ends at
    the first line that is non-empty and not indented past the marker.
    """
    doc = inspect.cleandoc(rule.__doc__ or "")
    lines = doc.splitlines()
    out: dict[str, str] = {}
    for marker, key in (("Bad::", "bad"), ("Good::", "good")):
        try:
            start = next(i for i, ln in enumerate(lines) if ln.strip() == marker)
        except StopIteration:
            continue
        block: list[str] = []
        for ln in lines[start + 1:]:
            if ln.strip() == "":
                block.append("")
            elif ln.startswith((" ", "\t")):
                block.append(ln)
            else:
                break
        out[key] = textwrap.dedent("\n".join(block)).strip("\n") + "\n"
    return out


@dataclass(frozen=True)
class Profile:
    """Which rules run, and where individual rules are path-exempt."""

    name: str
    rules: tuple[str, ...]  # rule ids, sorted
    # rule id -> posix-path substrings where the rule does not apply
    exemptions: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def applies(self, rule_id: str, path: str) -> bool:
        if rule_id not in self.rules:
            return False
        for fragment in self.exemptions.get(rule_id, ()):
            if fragment in path:
                return False
        return True


_ALL_RULE_IDS = (
    "DET001", "DET002", "DET003", "DET004",
    "EVT001", "EVT002", "EVT003",
    "TEL001", "TEL002",
    "EXC001",
)

PROFILES: dict[str, Profile] = {
    # Full rule pack for simulated/runtime code under src/repro.
    "sim": Profile(
        name="sim",
        rules=_ALL_RULE_IDS,
        exemptions={
            # The runner measures wall-clock durations by design; the
            # issue's determinism contract covers *simulated* code only.
            "DET001": ("repro/runner/",),
            # sim.rng is the one sanctioned wrapper around ``random``.
            "DET002": ("repro/sim/rng.py",),
            # The engine module *is* the event queue implementation.
            "EVT003": ("repro/sim/engine.py",),
        },
    ),
    # Looser pack for tests/ and benchmarks/: timing and module-state
    # tricks are legitimate there, but the structural event-model and
    # exception-hygiene rules still hold.
    "tests": Profile(
        name="tests",
        rules=("DET003", "EVT001", "EVT002", "EVT003", "EXC001"),
        exemptions={},
    ),
}


def get_profile(name: str) -> Profile:
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise KeyError(f"unknown lint profile {name!r}; known: {known}") from None


def rules_for(profile: Profile) -> list[Rule]:
    return [r for r in all_rules() if r.id in profile.rules]


def describe_rules(rules: Iterable[Rule]) -> list[dict]:
    """Stable rule-catalogue rows for ``--list-rules`` and the JSON report."""
    return [
        {"id": r.id, "severity": r.severity.label, "title": r.title}
        for r in rules
    ]
