"""Engine hot-path microbenchmark: events/sec, heapq vs calendar queue.

Drives both queue implementations through an identical synthetic
schedule shaped like real simulator traffic: many concurrent event
chains (cores, MSHRs, DRAM banks, window ticks) whose delays are aligned
to clock edges, so timestamps collide heavily -- the case the bucketed
calendar queue is built for. Each executed callback schedules its
chain's next event, exercising the schedule/run interleaving of a live
simulation rather than a pre-filled queue.

Run as a script for the full 1M-event measurement and a machine-readable
JSON record on stdout (``--json-file`` also writes it to disk, and
``--check`` exits non-zero unless the calendar queue clears the 2x
acceptance bar)::

    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py [--check]

Run under pytest for the CI smoke mode (a smaller schedule and a softer
ratio bound, to tolerate noisy shared runners)::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_hotpath.py
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

from repro.sim.engine import ENGINE_KINDS, Engine, make_engine
from repro.sim.rng import DeterministicRng

CPU_EDGE_PS = 500  # 2 GHz core clock
DRAM_EDGE_PS = 1250  # DDR3-1600 bus clock
GRID_PS = 1_000_000  # 1 us maintenance grid (window ticks, refresh)

FULL_EVENTS = 1_000_000
SMOKE_EVENTS = 120_000
CHAINS = 64


def make_delays(total_events: int, seed: int = 2015) -> list[int]:
    """Clock-edge-aligned delays mimicking simulator traffic.

    The mixture mirrors what the full-system run generates:

    - same-instant causal work (a response waking the core, the pump
      dispatching the next request, an MSHR merge firing its waiters) --
      delay 0;
    - short CPU-edge hops (hit latencies, core steps);
    - a band of mid-range DRAM-edge delays (bank timing, bus
      serialization);
    - periodic maintenance aligned to a global grid (statistics windows,
      refresh intervals), encoded as a *negative* delay whose magnitude
      the chain rounds up to the next grid point at schedule time.
    """
    rng = DeterministicRng(seed, name="bench_engine_hotpath")
    delays = []
    for _ in range(total_events):
        r = rng.random()
        if r < 0.35:
            delays.append(0)
        elif r < 0.65:
            delays.append(rng.randint(1, 4) * CPU_EDGE_PS)
        elif r < 0.88:
            delays.append(rng.randint(8, 96) * DRAM_EDGE_PS)
        else:
            delays.append(-rng.randint(1, 5) * GRID_PS)
    return delays


class _Chain:
    """One self-propagating event chain (a core / bank / device model)."""

    __slots__ = ("engine", "delays", "i", "n")

    def __init__(self, engine: Engine, delays: list[int], start: int, stop: int):
        self.engine = engine
        self.delays = delays
        self.i = start
        self.n = stop

    def step(self) -> None:
        i = self.i
        if i >= self.n:
            return
        self.i = i + 1
        delay = self.delays[i]
        engine = self.engine
        if delay >= 0:
            engine.post(delay, self.step)
        else:
            # Maintenance work: align to the next global grid boundary.
            engine.post_at((engine.now - delay) // GRID_PS * GRID_PS, self.step)


def drive(kind: str, delays: list[int], chains: int = CHAINS) -> dict:
    """Run the schedule to completion on one engine; return a result row."""
    engine = make_engine(kind)
    n = len(delays)
    per_chain = n // chains
    chain_objs = []
    for c in range(chains):
        start = c * per_chain
        stop = n if c == chains - 1 else start + per_chain
        chain_objs.append(_Chain(engine, delays, start, stop))
    started = time.perf_counter()
    for chain in chain_objs:
        chain.step()
    executed = engine.run()
    elapsed = time.perf_counter() - started
    # Every chain seeds one step outside run(); count them in.
    executed += chains
    return {
        "kind": kind,
        "events": executed,
        "elapsed_s": round(elapsed, 6),
        "events_per_sec": round(executed / elapsed, 1),
        "final_time_ps": engine.now,
    }


def run_benchmark(total_events: int = FULL_EVENTS, chains: int = CHAINS) -> dict:
    delays = make_delays(total_events)
    results = {kind: drive(kind, delays, chains) for kind in sorted(ENGINE_KINDS)}
    # Identical schedules must end at the identical simulated instant.
    finals = {row["final_time_ps"] for row in results.values()}
    if len(finals) != 1:
        raise AssertionError(f"engines diverged: final times {finals}")
    speedup = (
        results["calendar"]["events_per_sec"] / results["heapq"]["events_per_sec"]
    )
    return {
        "benchmark": "engine_hotpath",
        "n_events": total_events,
        "chains": chains,
        "python": platform.python_version(),
        "results": results,
        "speedup_calendar_over_heapq": round(speedup, 3),
    }


# -- pytest smoke mode (used by CI) ---------------------------------------


def test_engine_hotpath_smoke():
    record = run_benchmark(SMOKE_EVENTS)
    print()
    print(json.dumps(record, indent=2))
    for row in record["results"].values():
        assert row["events"] >= SMOKE_EVENTS
    # Soft bound for noisy CI runners; the scripted full run checks 2x.
    assert record["speedup_calendar_over_heapq"] >= 1.2


# -- script mode ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=FULL_EVENTS)
    parser.add_argument("--chains", type=int, default=CHAINS)
    parser.add_argument("--json-file", default=None)
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the calendar queue is >= 2x the heapq path",
    )
    args = parser.parse_args(argv)
    record = run_benchmark(args.events, args.chains)
    text = json.dumps(record, indent=2)
    print(text)
    if args.json_file:
        with open(args.json_file, "w") as fh:
            fh.write(text + "\n")
    if args.check and record["speedup_calendar_over_heapq"] < 2.0:
        print("FAIL: calendar queue below the 2x acceptance bar", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
