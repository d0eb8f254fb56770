"""Engine hot-path microbenchmark: events/sec, heapq vs calendar queue.

Drives both queue implementations through an identical synthetic
schedule shaped like real simulator traffic: many concurrent event
chains (cores, MSHRs, DRAM banks, window ticks) whose delays are aligned
to clock edges, so timestamps collide heavily -- the case the bucketed
calendar queue is built for. Each executed callback schedules its
chain's next event, exercising the schedule/run interleaving of a live
simulation rather than a pre-filled queue.

Each measurement runs :data:`PAIRS` interleaved calendar/heapq pairs,
alternating which engine goes first, and reports the median of the
per-pair speedups: on a shared host, one run of each engine can land
anywhere from 2.4x to 3.7x.

Run as a script for the full 1M-event measurement and a machine-readable
JSON record on stdout (``--json-file`` also writes it to disk, and
``--check`` exits non-zero unless the median speedup clears the 2x
acceptance bar)::

    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py [--check]

Run under pytest for the CI smoke mode (a smaller schedule and a softer
ratio bound, to tolerate noisy shared runners)::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_hotpath.py

The same pytest run also guards the real simulator's hot path without
timing anything: it counts the Python calls (function and builtin calls,
as ``sys.setprofile`` reports them) per dispatched event on a tiny Fig. 8
trigger-mode point and on a small Fig. 11 controller run, and fails
above :data:`CALLS_PER_EVENT_BUDGET` or :data:`FIG11_CALLS_PER_EVENT_BUDGET`.
It also counts the calls from the Fig. 8 point's driver call to its
first engine run -- the server build, LDom creation and the firmware's
device-file tree -- and fails above :data:`SETUP_CALLS_BUDGET`.
The counts are deterministic for a given CPython minor version, so the
guards run only on CPython 3.11, the version the budgets were measured
on. ``--calls-per-event`` prints all three counts (and, with ``--check``,
enforces the budgets)::

    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py --calls-per-event --check
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from contextlib import contextmanager

import pytest

from repro.sim.engine import ENGINE_KINDS, Engine, make_engine
from repro.sim.rng import DeterministicRng

CPU_EDGE_PS = 500  # 2 GHz core clock
DRAM_EDGE_PS = 1250  # DDR3-1600 bus clock
GRID_PS = 1_000_000  # 1 us maintenance grid (window ticks, refresh)

FULL_EVENTS = 1_000_000
SMOKE_EVENTS = 120_000
CHAINS = 64
# Interleaved calendar/heapq pairs per measurement.
PAIRS = 5


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
    """Run :data:`PAIRS` calendar/heapq pairs on one schedule.

    Pairs alternate which engine runs first, so slow drift on the host
    falls on both engines alike; the median per-pair speedup is the
    result.
    """
    delays = make_delays(total_events)
    kinds = sorted(ENGINE_KINDS)
    pairs = []
    for i in range(PAIRS):
        order = kinds if i % 2 == 0 else kinds[::-1]
        rows = {kind: drive(kind, delays, chains) for kind in order}
        speedup = rows["calendar"]["events_per_sec"] / rows["heapq"]["events_per_sec"]
        pairs.append({"first": order[0], **rows, "speedup": round(speedup, 3)})
    # Identical schedules must end at the identical simulated instant.
    finals = {pair[kind]["final_time_ps"] for pair in pairs for kind in kinds}
    if len(finals) != 1:
        raise AssertionError(f"engines diverged: final times {finals}")
    return {
        "benchmark": "engine_hotpath",
        "n_events": total_events,
        "chains": chains,
        "python": platform.python_version(),
        "pairs": pairs,
        "speedup_calendar_over_heapq": statistics.median(
            pair["speedup"] for pair in pairs
        ),
    }


# -- Python calls per dispatched event on the real simulator ---------------

# A tiny Fig. 8 trigger-mode point: memcached beside three STREAM LDoms,
# 0.05 ms warm-up (the trigger fires at its window) + 0.05 ms measured.
CALLS_POINT = dict(mode="trigger", rps=444_000, span_ms=0.05, seed=1)
# Calls per event on CALLS_POINT, measured on CPython 3.11.7 (12.14;
# 74.05 before the memory-hierarchy hot-path rewrite, 28.58 before the
# one-frame-per-hop pass, 23.31 before the one-frame-per-miss pass,
# 18.81 before misses forwarded their packet and used the control-plane
# tables in place, 15.09 before a DRAM request became one frame and the
# L1 victim a table lookup, 13.14 before the engine became post-only and
# lost the per-post int() coercion), plus 10%, rounded up.
CALLS_PER_EVENT_BUDGET = 13.4
# A small Fig. 11 run: the injector straight into both controller
# configurations, no cores or caches.
FIG11_CALLS_POINT = dict(inject_rate=0.75, num_requests=600, seed=1, jobs=1)
# Calls per event on FIG11_CALLS_POINT, measured on CPython 3.11.7
# (13.03; 29.29 before the one-frame-per-hop pass, 20.64 before the
# request stream was drawn once per run, 16.63 before the controller
# used the control-plane tables in place, 15.43 before a DRAM request
# became one frame from enqueue to response, 13.03 before the engine
# became post-only and lost the per-post int() coercion, 12.03 before
# each arrival front-posted the next instead of the whole stream being
# posted up front). The budget is 12.03 plus 10%, rounded up; the
# arrival's own frame and the front post fit under it.
FIG11_CALLS_PER_EVENT_BUDGET = 13.3
# Python calls from CALLS_POINT's driver call to its first engine run,
# measured on CPython 3.11.7 (1,977; 5,221 before an LDom's sysfs subtree
# was built in one tree walk per directory instead of two per file),
# plus 10%, rounded up.
SETUP_CALLS_BUDGET = 2175
CALLS_PYTHON = (3, 11)


class _FirstRun(Exception):
    """Ends a set-up-only count at the first engine run."""


@contextmanager
def _engines_run(stop: bool = False):
    """Collect every engine whose ``run`` is called inside the block;
    with ``stop``, the first ``run`` raises :class:`_FirstRun` instead."""
    engines: dict[int, Engine] = {}
    original = Engine.__dict__["run"]

    def run(engine, until_ps=None):
        if stop:
            raise _FirstRun
        engines[id(engine)] = engine
        return original(engine, until_ps)

    Engine.run = run
    try:
        yield engines
    finally:
        Engine.run = original


def _count_calls(run_point, setup_only: bool = False) -> tuple[int, int, object]:
    """Run ``run_point()`` under ``sys.setprofile``.

    Returns ``(calls, events, result)``: every ``call`` and ``c_call``
    profile event of the whole run, set-up included, and the events its
    engines executed. With ``setup_only`` the count ends at the first
    engine run, and no event or result is returned. The point runs once
    unprofiled first, so imports and first-use caches stay out of the
    count.
    """
    run_point()
    calls = 0
    result = None

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    with _engines_run(stop=setup_only) as engines:
        sys.setprofile(profile)
        try:
            result = run_point()
        except _FirstRun:
            pass
        finally:
            sys.setprofile(None)
    events = sum(engine.executed_total for engine in engines.values())
    return calls, events, result


def _fig8_point(point: dict):
    """The driver call of the Fig. 8 ``point``, as a thunk."""
    from repro.system.experiments import ColocationSetup, run_colocation_point

    setup = ColocationSetup(
        warmup_ms=point["span_ms"], control_window_ms=point["span_ms"]
    )
    return lambda: run_colocation_point(
        point["mode"], point["rps"], setup=setup,
        measure_ms=point["span_ms"], seed=point["seed"],
    )


def calls_per_event(point: dict = CALLS_POINT) -> dict:
    """Python calls per dispatched event on the Fig. 8 ``point``."""
    calls, events, result = _count_calls(_fig8_point(point))
    return {
        "benchmark": "calls_per_event",
        "point": point,
        "python": platform.python_version(),
        "calls": calls,
        "events": events,
        "calls_per_event": round(calls / events, 2),
        "budget": CALLS_PER_EVENT_BUDGET,
        "trigger_fired": result.trigger_fired,
    }


def setup_calls(point: dict = CALLS_POINT) -> dict:
    """Python calls from the Fig. 8 ``point``'s driver call to its first
    engine run: the server build, LDom creation and control-plane
    programming, with every LDom's sysfs subtree."""
    calls, _events, _result = _count_calls(_fig8_point(point), setup_only=True)
    return {
        "benchmark": "setup_calls",
        "point": point,
        "python": platform.python_version(),
        "calls": calls,
        "budget": SETUP_CALLS_BUDGET,
    }


def fig11_calls_per_event(point: dict = FIG11_CALLS_POINT) -> dict:
    """Python calls per dispatched event on the Fig. 11 ``point``."""
    from repro.system.experiments import run_fig11

    calls, events, _result = _count_calls(lambda: run_fig11(**point))
    return {
        "benchmark": "fig11_calls_per_event",
        "point": point,
        "python": platform.python_version(),
        "calls": calls,
        "events": events,
        "calls_per_event": round(calls / events, 2),
        "budget": FIG11_CALLS_PER_EVENT_BUDGET,
    }


def _on_budget_python() -> bool:
    return (
        sys.implementation.name == "cpython"
        and sys.version_info[:2] == CALLS_PYTHON
    )


# -- pytest smoke mode (used by CI) ---------------------------------------


def test_engine_hotpath_smoke():
    record = run_benchmark(SMOKE_EVENTS)
    print()
    print(json.dumps(record, indent=2))
    assert len(record["pairs"]) == PAIRS
    for pair in record["pairs"]:
        assert pair["calendar"]["events"] == pair["heapq"]["events"] >= SMOKE_EVENTS
    # Soft bound for noisy CI runners; the scripted full run checks 2x.
    assert record["speedup_calendar_over_heapq"] >= 1.2


def test_calls_per_event_within_budget():
    if not _on_budget_python():
        pytest.skip("the call budget was measured on CPython 3.11")
    record = calls_per_event()
    print()
    print(json.dumps(record, indent=2))
    assert record["trigger_fired"], "the tiny point must exercise the trigger path"
    assert record["calls_per_event"] <= CALLS_PER_EVENT_BUDGET, (
        f"{record['calls_per_event']} Python calls per event, budget "
        f"{CALLS_PER_EVENT_BUDGET}: a hot-path change added calls"
    )


def test_setup_calls_within_budget():
    if not _on_budget_python():
        pytest.skip("the call budget was measured on CPython 3.11")
    record = setup_calls()
    print()
    print(json.dumps(record, indent=2))
    assert record["calls"] <= SETUP_CALLS_BUDGET, (
        f"{record['calls']} Python calls to set up the Fig. 8 point, budget "
        f"{SETUP_CALLS_BUDGET}: a server-build or firmware change added calls"
    )


def test_fig11_calls_per_event_within_budget():
    if not _on_budget_python():
        pytest.skip("the call budget was measured on CPython 3.11")
    record = fig11_calls_per_event()
    print()
    print(json.dumps(record, indent=2))
    assert record["calls_per_event"] <= FIG11_CALLS_PER_EVENT_BUDGET, (
        f"{record['calls_per_event']} Python calls per event on Fig. 11, budget "
        f"{FIG11_CALLS_PER_EVENT_BUDGET}: a controller-path change added calls"
    )


# -- script mode ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=FULL_EVENTS)
    parser.add_argument("--chains", type=int, default=CHAINS)
    parser.add_argument("--json-file", default=None)
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the median calendar/heapq speedup is >= 2x "
        "(with --calls-per-event: unless the count is within its budget)",
    )
    parser.add_argument(
        "--calls-per-event", action="store_true",
        help="count Python calls per dispatched event on a tiny fig8 point "
        "and a small fig11 run, and the fig8 point's set-up calls",
    )
    args = parser.parse_args(argv)
    if args.calls_per_event:
        failed = False
        for record in (calls_per_event(), fig11_calls_per_event(), setup_calls()):
            print(json.dumps(record, indent=2))
            failed |= record.get("calls_per_event", record["calls"]) > record["budget"]
        if args.check and failed:
            print("FAIL: Python calls above the budget", file=sys.stderr)
            return 1
        return 0
    record = run_benchmark(args.events, args.chains)
    text = json.dumps(record, indent=2)
    print(text)
    if args.json_file:
        with open(args.json_file, "w") as fh:
            fh.write(text + "\n")
    if args.check and record["speedup_calendar_over_heapq"] < 2.0:
        print("FAIL: median speedup below the 2x acceptance bar", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
