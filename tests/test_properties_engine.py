"""Randomized property tests for the event queue implementations.

A random scenario -- a self-expanding web of relative and absolute
posts -- is replayed on the bucketed calendar queue and on the heapq
reference, and the two execution traces must be byte-identical: same
events, same timestamps, same tie-break order, same bounded-run
boundaries. Any divergence in ordering or ``run(until_ps=...)``
semantics shows up as a trace mismatch.
"""

import pytest

from repro.sim.engine import ENGINE_KINDS, make_engine
from repro.sim.rng import DeterministicRng

SEEDS = [7, 23, 101, 2015]


class _Scenario:
    """A deterministic random workload driven entirely by engine callbacks.

    Every fired event appends ``(now, label)`` to the trace, then draws
    from the scenario RNG to decide what to do next: spawn follow-up
    events (via ``post`` or ``post_at``) or go quiet. Because every draw
    happens inside a callback, the RNG stream itself verifies ordering:
    two engines only see the same draws if they fire events in exactly
    the same order.
    """

    def __init__(self, engine, seed: int, max_events: int = 400):
        self.engine = engine
        self.rng = DeterministicRng(seed, name="engine-prop")
        self.trace = []
        self.spawned = 0
        self.max_events = max_events

    def seed_events(self, count: int = 8) -> None:
        for _ in range(count):
            self._spawn()

    def _spawn(self) -> None:
        if self.spawned >= self.max_events:
            return
        label = self.spawned
        self.spawned += 1
        # Mix zero delays (same-timestamp ties) with spread-out ones.
        roll = self.rng.random()
        if roll < 0.3:
            delay = 0
        elif roll < 0.8:
            delay = self.rng.randint(1, 40) * 250
        else:
            delay = self.rng.randint(1, 5000)
        if self.rng.random() < 0.5:
            self.engine.post(delay, lambda: self._fire(label))
        else:
            self.engine.post_at(self.engine.now + delay, lambda: self._fire(label))

    def _fire(self, label: int) -> None:
        self.trace.append((self.engine.now, label))
        for _ in range(self.rng.randint(0, 2)):
            self._spawn()


def run_scenario(kind: str, seed: int, bounded: bool):
    engine = make_engine(kind)
    scenario = _Scenario(engine, seed)
    scenario.seed_events()
    boundaries = []
    if bounded:
        # Tile the timeline with random-sized bounded runs, exercising
        # the until_ps boundary (events exactly at the bound execute).
        slice_rng = DeterministicRng(seed, name="slices")
        while engine.pending_events:
            executed = engine.run_for(slice_rng.randint(1, 200_000))
            boundaries.append((engine.now, executed))
    else:
        engine.run()
    return scenario.trace, boundaries, engine.now


@pytest.mark.parametrize("seed", SEEDS)
def test_calendar_matches_heapq_free_run(seed):
    traces = {}
    for kind in sorted(ENGINE_KINDS):
        traces[kind] = run_scenario(kind, seed, bounded=False)
    assert traces["calendar"] == traces["heapq"]
    trace = traces["calendar"][0]
    assert len(trace) > 50  # the scenario actually did something
    times = [t for t, _ in trace]
    assert times == sorted(times)  # monotone timestamps


@pytest.mark.parametrize("seed", SEEDS)
def test_calendar_matches_heapq_bounded_runs(seed):
    traces = {}
    for kind in sorted(ENGINE_KINDS):
        traces[kind] = run_scenario(kind, seed, bounded=True)
    assert traces["calendar"] == traces["heapq"]


@pytest.mark.parametrize("seed", SEEDS)
def test_scenario_is_reproducible(seed):
    """The same engine kind, run twice, is bit-identical with itself."""
    assert run_scenario("calendar", seed, bounded=False) == run_scenario(
        "calendar", seed, bounded=False
    )


@pytest.mark.parametrize("kind", sorted(ENGINE_KINDS))
def test_until_boundary_includes_events_at_bound(kind):
    engine = make_engine(kind)
    fired = []
    for t in (100, 200, 200, 300):
        engine.post_at(t, lambda t=t: fired.append(t))
    engine.run(until_ps=200)
    assert fired == [100, 200, 200]
    assert engine.now == 200
    engine.run()
    assert fired == [100, 200, 200, 300]
