"""Golden determinism tests.

Two guarantees the whole experimental methodology rests on:

1. **Run-to-run determinism** -- the full-system memcached+STREAM
   colocation, run twice from the same seed, produces bit-identical
   statistics (request counts, per-sample latency lists, cache and DRAM
   counters, core busy time). Without this, no paper figure is
   reproducible.

2. **Queue-implementation equivalence** -- the bucketed calendar queue
   and the heapq reference dispatch events in byte-identical order, so
   the *same digest* must come out of the full system regardless of
   which queue implementation runs it.

3. **Sweep-parallelism equivalence** -- an experiment grid fanned out
   over a process pool (``jobs=N``) merges to byte-identical results
   and telemetry as the exact serial path (``jobs=1``). Without this,
   ``--jobs`` would silently change the figures it accelerates.
"""

import pytest

from repro.runner.builders import all_points, fig8_points
from repro.sim.engine import ENGINE_KINDS
from repro.sim.rng import DeterministicRng
from tests.test_golden_digests import (
    FIG8_FULL_GRID,
    FIG8_SOLO_PAIR,
    TINY,
    fig8_digest,
    pinned,
    run_colocation,
)


@pytest.mark.slow
@pytest.mark.parametrize("kind", sorted(ENGINE_KINDS))
def test_same_seed_same_digest(kind):
    """The colocation scenario is bit-deterministic under each queue, and
    its digest is the pinned one."""
    first = run_colocation(kind)
    assert first == pinned(f"colocation_{kind}")
    assert run_colocation(kind) == first


@pytest.mark.slow
def test_queue_implementations_agree_on_full_system():
    """heapq and calendar queues drive the machine to the same state."""
    digests = {kind: run_colocation(kind) for kind in sorted(ENGINE_KINDS)}
    assert digests["calendar"] == digests["heapq"]


def test_queue_implementations_agree_on_randomized_schedule():
    """Byte-identical event orderings on a randomized schedule: every
    (timestamp, label) pair matches between the two queues."""
    rng_seed = 2015

    def ordering(kind: str):
        from repro.sim.engine import make_engine

        engine = make_engine(kind)
        rng = DeterministicRng(rng_seed, name="golden-schedule")
        trace = []
        for label in range(2_000):
            delays = (0, 250, 500, 1250, rng.randint(1, 100_000))
            delay = delays[rng.randint(0, len(delays) - 1)]
            engine.post(0, lambda: None)  # noise: same-instant filler
            engine.post(delay, lambda label=label: trace.append((engine.now, label)))
        engine.run()
        return trace

    assert ordering("calendar") == ordering("heapq")


# -- sweep-parallelism equivalence ------------------------------------------


def test_parallel_sweep_matches_serial():
    """jobs=2 merges to the same bytes as the exact serial fallback, and
    the serial digest is the pinned one."""
    serial = fig8_digest(1, **FIG8_SOLO_PAIR)
    assert serial == pinned("fig8_solo_pair")
    assert fig8_digest(2, **FIG8_SOLO_PAIR) == serial


@pytest.mark.slow
def test_parallel_sweep_matches_serial_full_grid():
    """The full tiny grid (3 modes x 2 loads) at jobs=4, incl. telemetry."""
    serial = fig8_digest(1, **FIG8_FULL_GRID)
    assert serial == pinned("fig8_full_grid")
    assert fig8_digest(4, **FIG8_FULL_GRID) == serial


def test_fig8_sweep_points_specs_are_stable():
    """Point specs carry everything: the setup itself and an explicit seed."""
    points = fig8_points(
        loads_rps=[150_000, 250_000], modes=("solo", "shared"), setup=TINY,
        measure_ms=0.5,
    )
    assert [p.label for p in points] == [
        "solo@150000rps", "solo@250000rps",
        "shared@150000rps", "shared@250000rps",
    ]
    assert all(p.kwargs["seed"] == TINY.seed for p in points)
    assert all(p.kwargs["setup"] is TINY for p in points)


def test_repro_all_grid_labels_and_fig11_spec():
    """`repro all` runs fig7, the 12-point fig8 grid, fig9, fig10, fig11."""
    points = all_points()
    assert [p.label for p in points] == [
        "fig7",
        *(f"{mode}@{rps}rps" for mode in ("solo", "shared", "trigger")
          for rps in (222000, 333000, 444000, 500000)),
        "fig9", "fig10", "fig11",
    ]
    fig11 = points[-1].kwargs
    assert (fig11["jobs"], fig11["seed"]) == (1, 7)
