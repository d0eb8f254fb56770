"""Telemetry overhead benchmark: 1% sampling must stay bounded.

Drives the same colocated fig8-style machine (memcached + three stream
antagonists, "shared" mode) under two telemetry configurations:

- ``none``        -- no hub at all (``telemetry=None``, the only way to
  turn telemetry off),
- ``sampled_1pct`` -- 1-in-100 span sampling and 1 ms metric snapshots
  (the recommended operator configuration).

The simulation itself must be byte-identical across configurations
(telemetry observes, never schedules differently), which the benchmark
asserts via served-request counts on every run.

Each round runs both configurations back to back, alternating which one
goes first, and takes the sampled run's events/sec ratio to ``none``
within the round. The reported ``sampled_vs_none`` is the median of
those per-round ratios, so a noisy moment on a shared machine skews one
round, not the verdict.

Run as a script for the full measurement and a machine-readable JSON
record on stdout (``--json-file`` also writes it to disk; ``--check``
exits non-zero unless 1% sampling stays within the bounded-overhead
bar)::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py [--check]

Run under pytest for the CI smoke mode (shorter simulation, softer
bounds for noisy shared runners)::

    PYTHONPATH=src python -m pytest benchmarks/bench_telemetry_overhead.py
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time

from repro.system.experiments import ColocationSetup, _build_colocated_server
from repro.telemetry.hub import Telemetry

RPS = 220_000
FULL_SIM_MS = 4.0
SMOKE_SIM_MS = 1.0
SMOKE_ROUNDS = 3
CONFIGS = ("none", "sampled_1pct")

# Acceptance bars (events/sec relative to the no-telemetry baseline).
SAMPLED_BAR = 0.70  # 1% sampling: bounded, not free
SMOKE_SAMPLED_BAR = 0.50


def _make_telemetry(config: str) -> Telemetry | None:
    if config == "none":
        return None
    if config == "sampled_1pct":
        return Telemetry(span_sample=100, snapshot_period_ms=1.0)
    raise ValueError(f"unknown config {config!r}")


def drive(config: str, sim_ms: float, rps: float = RPS) -> dict:
    """Run one configuration to completion; return a result row."""
    telemetry = _make_telemetry(config)
    setup = ColocationSetup()
    server, memcached, _ds_id = _build_colocated_server(
        setup, "shared", rps, telemetry=telemetry
    )
    started = time.perf_counter()
    executed = server.run_ms(sim_ms)
    elapsed = time.perf_counter() - started
    row = {
        "config": config,
        "events": executed,
        "elapsed_s": round(elapsed, 6),
        "events_per_sec": round(executed / elapsed, 1),
        "requests_served": memcached.requests_served,
    }
    if telemetry is not None:
        row["spans_recorded"] = len(telemetry.spans.finished)
        row["snapshots"] = len(telemetry.snapshots)
        row["instruments"] = len(telemetry.registry.snapshot())
    return row


def run_benchmark(sim_ms: float = FULL_SIM_MS, repeat: int = 1) -> dict:
    """Run ``repeat`` rounds; round ``k`` starts with config ``k mod 2``."""
    rounds = []
    for index in range(max(1, repeat)):
        first = index % len(CONFIGS)
        order = CONFIGS[first:] + CONFIGS[:first]
        rows = {config: drive(config, sim_ms) for config in order}
        # Telemetry must observe without perturbing the simulation.
        served = {row["requests_served"] for row in rows.values()}
        if len(served) != 1:
            raise AssertionError(f"configs diverged: requests served {served}")
        baseline = rows["none"]["events_per_sec"]
        rounds.append({
            "order": list(order),
            "rows": rows,
            "sampled_vs_none": rows["sampled_1pct"]["events_per_sec"] / baseline,
        })
    return {
        "benchmark": "telemetry_overhead",
        "sim_ms": sim_ms,
        "rps": RPS,
        "repeat": len(rounds),
        "python": platform.python_version(),
        "rounds": rounds,
        "sampled_vs_none": round(
            statistics.median(r["sampled_vs_none"] for r in rounds), 4
        ),
    }


def round_table(record: dict) -> str:
    """One line per round: run order, events/sec and the ratio."""
    lines = []
    for index, rnd in enumerate(record["rounds"]):
        rates = " ".join(
            f"{config}={rnd['rows'][config]['events_per_sec']:.0f}/s"
            for config in rnd["order"]
        )
        lines.append(
            f"round {index}: {rates}  "
            f"sampled_vs_none={rnd['sampled_vs_none']:.3f}"
        )
    return "\n".join(lines)


# -- pytest smoke mode (used by CI) ---------------------------------------


def test_telemetry_overhead_smoke():
    record = run_benchmark(SMOKE_SIM_MS, repeat=SMOKE_ROUNDS)
    print()
    print(round_table(record))
    for rnd in record["rounds"]:
        assert rnd["rows"]["sampled_1pct"]["spans_recorded"] > 0
        assert rnd["rows"]["sampled_1pct"]["snapshots"] > 0
    assert record["sampled_vs_none"] >= SMOKE_SAMPLED_BAR


# -- script mode ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sim-ms", type=float, default=FULL_SIM_MS)
    parser.add_argument("--repeat", type=int, default=3,
                        help="rounds; the median per-round ratio is reported")
    parser.add_argument("--json-file", default=None)
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless 1%% sampling keeps at least "
             f"{SAMPLED_BAR} of the no-telemetry events/sec",
    )
    args = parser.parse_args(argv)
    record = run_benchmark(args.sim_ms, args.repeat)
    print(round_table(record), file=sys.stderr)
    text = json.dumps(record, indent=2)
    print(text)
    if args.json_file:
        with open(args.json_file, "w") as fh:
            fh.write(text + "\n")
    if args.check:
        if record["sampled_vs_none"] < SAMPLED_BAR:
            print(
                f"FAIL: 1% sampling at {record['sampled_vs_none']:.3f}x "
                f"baseline (bar {SAMPLED_BAR})", file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
