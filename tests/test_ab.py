"""``benchmarks/ab.py``: the pair statistics, and one tiny pair against HEAD."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "benchmarks" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(wall_s, rate, correct=True):
    return {
        "correct": correct,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "sim_us_per_wall_s": {"value": rate, "unit": "us/s"},
        },
    }


METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "sim_us_per_wall_s", "unit": "us/s", "better": "higher"},
]


def test_summarize_counts_wins_in_each_metrics_direction():
    ab = load_ab()
    pairs = [
        {"base": record(1.0, 10.0), "head": record(0.9, 11.0)},
        {"base": record(1.0, 10.0), "head": record(0.8, 12.0)},
        {"base": record(1.0, 10.0), "head": record(1.1, 9.0)},
    ]
    wall, rate = ab.summarize(pairs, METRICS)
    assert wall["won"] == 2 and rate["won"] == 2
    assert wall["pairs"] == 3
    assert wall["ratio"][1] == pytest.approx(0.9)
    assert rate["ratio"][1] == pytest.approx(1.1)
    assert wall["base"] == (1.0, 1.0, 1.0)
    assert wall["head"][0] <= wall["head"][1] <= wall["head"][2]
    assert wall["correct"] and rate["correct"]
    pairs[1]["head"]["correct"] = False
    assert not any(row["correct"] for row in ab.summarize(pairs, METRICS))
    table = ab.format_rows("fig8-solo", 1, ab.summarize(pairs, METRICS))
    assert "| wall_s (s) | 1 [1, 1] | 0.9 [0.85, 1] |" in table
    assert "| 2/3 | NO |" in table


def _in_git_checkout() -> bool:
    try:
        subprocess.run(
            ["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
            check=True, capture_output=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return False
    return True


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout with a HEAD")
def test_one_tiny_pair_against_head():
    proc = subprocess.run(
        [
            sys.executable, "benchmarks/ab.py", "HEAD", "--workload", "fig11-dram",
            "--pairs", "1", "--seconds", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fig11-dram seed=1" in proc.stdout
    for metric in ("wall_s (s)", "setup_s (s)", "sim_us_per_wall_s (us/s)", "peak_rss_mb (MB)"):
        assert f"| {metric} |" in proc.stdout
    assert proc.stdout.count("| yes |") == 4
