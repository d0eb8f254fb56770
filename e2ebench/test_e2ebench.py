"""Tests of the end-to-end benchmark itself.

Run from the repository root::

    python3 -m pytest e2ebench

Everything but the reference check runs the workloads at tiny scale and
with seed 2, which has no recorded reference.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

TINY = bench.workloads(tiny=True)
SEED = 2


def _declared(trace: bool) -> list[str]:
    return [metric["name"] for metric in bench.declared_metrics(trace)]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_workload_runs_and_prints_only_declared_metrics(name, trace):
    out = io.StringIO()
    argv = ["--workload", name, "--seed", str(SEED), "--seconds", "0",
            "--trace", str(trace)]
    assert bench.main(argv, table=TINY, out=out) == 0, out.getvalue()
    lines = out.getvalue().splitlines()
    record = json.loads(lines[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert list(record["metrics"]) == _declared(bool(trace))
    printed = [line.split()[0] for line in lines[1:-1] if line.startswith("  ")]
    assert printed == _declared(bool(trace))


@pytest.mark.parametrize("name", list(TINY))
def test_digest_is_stable_and_tracing_does_not_perturb(name):
    workload = TINY[name]
    first = bench.digest(workload.run(SEED))
    assert bench.digest(workload.run(SEED)) == first
    result, trace, _wall_s = bench.traced_rep(workload, SEED)
    assert bench.digest(result) == first
    assert trace.count_mismatches() == []


def test_trace_accounts_for_every_second_and_every_layer():
    result, trace, wall_s = bench.traced_rep(TINY["fig8-trigger"], SEED)
    assert result.trigger_fired
    attributed = sum(trace.self_s.values())
    assert abs(wall_s - attributed) < 0.01 * wall_s
    # The full contended machine crosses every layer boundary.
    assert all(seconds > 0 for seconds in trace.self_s.values()), trace.self_s
    metrics = trace.metrics()
    assert metrics["prm.triggers_fired"] == 1
    assert metrics["cache.llc.writebacks"] > 0


def test_missed_boundary_shows_as_count_mismatch():
    _result, trace, _wall_s = bench.traced_rep(TINY["fig8-solo"], SEED)
    # As if one core's accesses had bypassed the L1 wrapper.
    trace.calls[("cpu", "cache.l1", "access")] -= 1
    assert any("core memory accesses" in p for p in trace.count_mismatches())


@pytest.mark.parametrize("name", list(TINY))
def test_default_seed_matches_reference(name):
    workload = bench.workloads()[name]
    result = workload.run(bench.DEFAULT_SEED)
    assert bench.reference_digest(name, bench.DEFAULT_SEED) == bench.digest(result)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(bench.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fig11-dram",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
