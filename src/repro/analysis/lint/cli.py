"""The ``python -m repro.analysis`` / ``repro-lint`` command line.

With no paths, lints the whole repo: ``src/repro`` under the strict
``sim`` profile and ``tests``/``benchmarks`` under the looser ``tests``
profile. Explicit paths use ``--profile`` (default ``sim``).

Exit status: 0 clean; 1 findings (any active finding with ``--strict``,
ERROR-severity otherwise); 2 usage errors. The baseline file
(``lint-baseline.json``) is honored when present and regenerated with
``--write-baseline``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.lint.baseline import Baseline, DEFAULT_BASELINE_NAME
from repro.analysis.lint.engine import LintTarget, default_targets, run_lint
from repro.analysis.lint.registry import all_rules, get_profile, rule_examples
from repro.analysis.lint.reporters import render_json_text, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="simulation-safety linter: determinism, event-model, "
                    "telemetry and exception-hygiene invariants",
    )
    parser.add_argument("paths", nargs="*",
                        help="files/directories to lint (default: src/repro "
                             "strictly, tests+benchmarks loosely)")
    parser.add_argument("--profile", default="sim",
                        help="rule profile for explicit paths (sim|tests)")
    parser.add_argument("--root", default=".",
                        help="repo root findings are reported relative to")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format on stdout")
    parser.add_argument("--json-out", metavar="FILE", default=None,
                        help="additionally write the JSON report to FILE")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help=f"baseline file (default: {DEFAULT_BASELINE_NAME} "
                             f"under --root when present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline to cover current findings "
                             "and exit 0")
    parser.add_argument("--strict", action="store_true",
                        help="fail on any new finding, not just errors "
                             "(baselined/suppressed still pass)")
    parser.add_argument("--verbose", action="store_true",
                        help="also print baselined and suppressed findings")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def _print_rules() -> int:
    for rule in all_rules():
        print(f"{rule.id}  {rule.severity.label:7s}  {rule.title}")
        examples = rule_examples(rule)
        if "bad" not in examples or "good" not in examples:
            print("  (missing Bad::/Good:: examples)")
    return 0


def _baseline_path(args) -> Optional[Path]:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return Path(args.baseline)
    candidate = Path(args.root) / DEFAULT_BASELINE_NAME
    return candidate if candidate.exists() or args.write_baseline else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return _print_rules()
    try:
        get_profile(args.profile)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2

    if args.paths:
        targets = [LintTarget(path, args.profile) for path in args.paths]
    else:
        targets = default_targets(args.root)
        if not targets:
            print(f"nothing to lint under {args.root!r}", file=sys.stderr)
            return 2

    baseline_path = _baseline_path(args)
    if args.write_baseline:
        # Lint without the old baseline applied, then cover everything.
        previous = Baseline.load_or_empty(baseline_path)
        result = run_lint(targets, root=args.root, baseline=None)
        fresh = Baseline.from_findings(result.findings, previous=previous)
        written = fresh.dump(baseline_path or
                             Path(args.root) / DEFAULT_BASELINE_NAME)
        print(f"baseline: {written} entries covering "
              f"{sum(fresh.entries.values())} findings")
        return 0

    baseline = Baseline.load_or_empty(baseline_path)
    result = run_lint(targets, root=args.root, baseline=baseline)

    if args.format == "json":
        sys.stdout.write(render_json_text(result, strict=args.strict))
    else:
        sys.stdout.write(render_text(result, verbose=args.verbose))
    if args.json_out:
        Path(args.json_out).write_text(
            render_json_text(result, strict=args.strict), encoding="utf-8"
        )
    return 1 if result.failed(args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
