"""A/B the end-to-end benchmark of the working tree against a git revision.

Exports ``rev``'s committed files into a temporary directory with
``git archive`` (local, no network, and no worktree or other state left
in the repository), then runs each side's own ``e2ebench/run.py`` in a
subprocess, once per
workload per pair, alternating which side goes first. For each workload
and end-to-end metric of ``BENCHMARK.json`` it prints both sides'
medians with their quartiles, the median head/base ratio with its
quartiles, the pairs the head side won and whether every run on both
sides reported ``correct``::

    python benchmarks/ab.py HEAD~1 --workload fig8-solo --seed 1 --pairs 10

A pair's value on each side is the median ``run.py`` reports for one
invocation of ``--seconds`` host seconds. The export is removed on
exit. The working tree (``head``) is measured as it is on disk,
committed or not.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``run.py`` invocation in ``checkout``; its JSON record."""
    proc = subprocess.run(
        [
            sys.executable, "e2ebench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=checkout, capture_output=True, text=True,
    )
    records = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if not records:
        raise RuntimeError(
            f"{checkout}: run.py --workload {workload} printed no record "
            f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    record = json.loads(records[-1])
    if not record["metrics"]:
        raise RuntimeError(f"{checkout}: every {workload} run failed:\n{proc.stdout}")
    return record


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per metric from ``pairs``, each ``{"base": record, "head":
    record}`` of the same workload. A pair is won when the head's value is
    better in the metric's direction; the ratio is head / base."""
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [pair["base"]["metrics"][name]["value"] for pair in pairs]
        head = [pair["head"]["metrics"][name]["value"] for pair in pairs]
        ratios = [h / b for b, h in zip(base, head)]
        won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        rows.append({
            "metric": name,
            "unit": metric["unit"],
            "base": _quartiles(base),
            "head": _quartiles(head),
            "ratio": _quartiles(ratios),
            "won": won,
            "pairs": len(pairs),
            "correct": all(pair[side]["correct"] for pair in pairs for side in SIDES),
        })
    return rows


def format_rows(workload: str, seed: int, rows: list[dict]) -> str:
    """``rows`` as a Markdown table; each cell is ``median [q1, q3]``."""

    def cell(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [
        f"{workload} seed={seed}",
        "| metric | base | head | head/base | won | correct |",
        "|---|---|---|---|---|---|",
    ]
    for row in rows:
        lines.append(
            f"| {row['metric']} ({row['unit']}) | {cell(row['base'])} | "
            f"{cell(row['head'])} | {cell(row['ratio'])} | "
            f"{row['won']}/{row['pairs']} | {'yes' if row['correct'] else 'NO'} |"
        )
    return "\n".join(lines)


def export(commit: str, dest: Path) -> None:
    """Write ``commit``'s committed files under ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the base revision, e.g. HEAD or a commit id")
    parser.add_argument(
        "--workload", action="append",
        help="an e2ebench workload; repeat for several (default: all three)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    workloads = args.workload or [entry["name"] for entry in spec["workloads"]]
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    all_correct = True
    with tempfile.TemporaryDirectory(prefix="ab-") as base_root:
        export(commit, Path(base_root))
        checkouts = {"base": Path(base_root), "head": ROOT}
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {
                    side: run_side(checkouts[side], workload, args.seed, args.seconds)
                    for side in order
                }
                pairs.append(pair)
                print(
                    f"{workload} pair {i + 1}/{args.pairs} ({order[0]} first): "
                    + ", ".join(
                        f"{side} wall_s={pair[side]['metrics']['wall_s']['value']:.4g}"
                        for side in SIDES
                    ),
                    file=sys.stderr, flush=True,
                )
            rows = summarize(pairs, metrics)
            all_correct = all_correct and all(row["correct"] for row in rows)
            print(format_rows(workload, args.seed, rows))
            print()
    print(f"base {args.rev} = {commit[:12]}; head = working tree at {ROOT}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
