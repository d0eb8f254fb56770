"""The sweep runner: deterministic merge, failure handling, retries.

The point functions below are module-level, so pool workers receive
them by reference exactly as they receive the experiment drivers. The
colocation and fig11 tests double as the regression suite for the
point-seed contract: a point's result depends only on its spec
(function + kwargs, the seed among them), never on what ran before it
in the process.
"""

import multiprocessing
import os
import pickle
import re

import pytest

from repro.runner.builders import fig8_points
from repro.runner.sweep import SweepError, SweepPoint, SweepResult, run_sweep
from repro.sim.stats import LatencyRecorder
from repro.system.experiments import (
    ColocationSetup,
    run_colocation_point,
    run_fig11,
)
from repro.telemetry.hub import Telemetry


def _square(x, seed=0, telemetry=None):
    if telemetry is not None:
        telemetry.registry.gauge_fn("test.points", lambda: 1)
        recorder = LatencyRecorder()
        recorder.record(x)
        telemetry.registry.histogram(
            "test.x", (recorder,), start=1.0, growth=2.0, count=8
        )
        span = telemetry.spans.maybe_start(ds_id=0, packet_id=x, kind="test")
        if span is not None:
            span.hop("begin", 0)
            span.hop("end", 10 * (x + 1))
            telemetry.spans.finish(span)
        telemetry.snapshot(t_ps=1_000 * x)
    return x ** 2 + seed


def _fail_odd(i, telemetry=None):
    if i % 2 == 1:
        raise ValueError(f"boom at point {i}")
    return i


def _fail_in_worker(telemetry=None):
    # Fails only inside a pool worker; a parent-process retry succeeds.
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("worker-only failure")
    return "parent-ok"


def _crash_in_worker(i, telemetry=None):
    # Kills its pool worker outright; the parent-process retry succeeds.
    if i == 1 and multiprocessing.parent_process() is not None:
        os._exit(3)
    return i


def square_points(n, seed=0):
    return [SweepPoint(_square, {"x": i, "seed": seed}) for i in range(n)]


def test_sweep_point_pickle_round_trip():
    point = SweepPoint(
        _square, {"x": 3, "nested": {"a": [1]}}, label="x=3",
    )
    clone = pickle.loads(pickle.dumps(point))
    assert clone == point
    assert clone.fn is _square
    assert clone.display_label(0) == "x=3"
    assert SweepPoint(_square, {}).display_label(4) == "_square[4]"


def test_sweep_point_rejects_lambda_and_nested_def():
    def nested(telemetry=None):
        return 1

    for fn in (lambda telemetry=None: 1, nested):
        with pytest.raises(TypeError, match="module-level function"):
            SweepPoint(fn, {})


def test_serial_and_parallel_agree():
    serial = run_sweep(square_points(9, seed=5), jobs=1)
    pooled = run_sweep(square_points(9, seed=5), jobs=2)
    assert serial.ok and pooled.ok
    assert serial.values() == pooled.values() == [i ** 2 + 5 for i in range(9)]
    assert [p.index for p in pooled.points] == list(range(9))
    assert [p.label for p in pooled.points] == [f"_square[{i}]" for i in range(9)]


def test_collection_order_is_index_order(capsys):
    run_sweep(square_points(8), jobs=2, progress=True)
    seen = re.findall(r"\[sweep\] point #(\d+) ", capsys.readouterr().err)
    assert [int(i) for i in seen] == list(range(8))


def test_failures_are_captured_and_survivors_merge():
    points = [SweepPoint(_fail_odd, {"i": i}) for i in range(5)]
    sweep = run_sweep(points, jobs=2)
    assert not sweep.ok
    assert sweep.values() == [0, 2, 4]
    failed = sweep.failed
    assert [p.index for p in failed] == [1, 3]
    for pr in failed:
        assert "ValueError: boom at point" in pr.error
        assert "Traceback" in pr.error
        assert pr.retried and pr.attempts == 2
    with pytest.raises(SweepError) as exc_info:
        sweep.raise_on_failure()
    assert "2/5 sweep points failed" in str(exc_info.value)
    assert exc_info.value.result is sweep


def test_failed_point_retried_once_in_parent():
    points = [SweepPoint(_fail_in_worker, {}) for _ in range(2)]
    sweep = run_sweep(points, jobs=2)
    assert sweep.ok
    for pr in sweep.points:
        assert pr.value == "parent-ok"
        assert pr.retried and pr.attempts == 2


def test_worker_crash_fails_its_points_and_the_parent_retries_them():
    points = [SweepPoint(_crash_in_worker, {"i": i}) for i in range(4)]
    sweep = run_sweep(points, jobs=2)
    assert sweep.ok and sweep.values() == [0, 1, 2, 3]
    assert sweep.points[1].retried and sweep.points[1].attempts == 2


def test_retry_failure_reports_both_attempts():
    points = [SweepPoint(_fail_odd, {"i": i}) for i in range(2)]
    sweep = run_sweep(points, jobs=1)
    pr = sweep.points[1]
    assert not pr.ok and pr.retried and pr.attempts == 2
    assert "(earlier attempt failed with)" in pr.error


def test_point_validation():
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_sweep(square_points(2), jobs=0)
    empty = run_sweep([], jobs=4)
    assert isinstance(empty, SweepResult) and empty.points == []


def test_telemetry_merge_identical_serial_and_parallel():
    def merged(jobs):
        hub = Telemetry(span_sample=1)
        sweep = run_sweep(square_points(6), jobs=jobs, telemetry=hub)
        assert sweep.ok
        assert hub.registry.snapshot() == {}
        return hub.spans.dump(), hub.snapshots

    serial_spans, serial_snaps = merged(1)
    pooled_spans, pooled_snaps = merged(2)
    assert serial_spans == pooled_spans
    assert serial_snaps == pooled_snaps
    # One snapshot per point, in index order, each holding that point's
    # own values only.
    assert [snap["run"] for snap in serial_snaps] == [
        f"_square[{i}]" for i in range(6)
    ]
    for x, snap in enumerate(serial_snaps):
        assert snap["metrics"]["test.points"] == 1
        histogram = snap["metrics"]["test.x"]
        assert histogram["count"] == 1
        assert histogram["min"] == histogram["max"] == x
    # One span per point, packet ids rebased into disjoint ranges.
    ids = [s["packet_id"] for s in serial_spans["finished"]]
    assert len(ids) == len(set(ids)) == 6


# -- the point-seed contract (order independence) ---------------------------

TINY = ColocationSetup(
    scale=32, mc_working_set_bytes=56 << 10, mc_loads_per_request=60,
    stream_array_bytes=256 << 10, warmup_ms=0.5,
)


def _tiny_point(mode="solo", rps=150_000, seed=None):
    return run_colocation_point(
        mode, rps, setup=TINY, measure_ms=0.3,
        seed=TINY.seed if seed is None else seed,
    )


def _llc_misses_alone(mode):
    hub = Telemetry()
    run_colocation_point(
        mode, 150_000, setup=TINY, measure_ms=0.3, telemetry=hub,
        seed=TINY.seed,
    )
    return hub.registry.snapshot()["cache.llc.misses"]


def test_sweep_snapshots_keep_each_points_own_values():
    """A sweep keeps no merged registry whose values mix points.

    Each point's last snapshot, under its own run label, must hold the
    LLC misses of that point run alone. Solo and shared differ, so any
    single merged value would misreport one of them.
    """
    modes = ("solo", "shared")
    alone = {f"{mode}@150000rps": _llc_misses_alone(mode) for mode in modes}
    assert len(set(alone.values())) == 2
    points = fig8_points(
        loads_rps=[150_000], modes=modes, setup=TINY, measure_ms=0.3
    )
    snapshots = {}
    for jobs in (1, 2):
        hub = Telemetry(span_sample=1, snapshot_period_ms=0.25)
        run_sweep(points, jobs=jobs, telemetry=hub).raise_on_failure()
        assert hub.registry.snapshot() == {}
        last = {snap["run"]: snap["metrics"] for snap in hub.snapshots}
        assert {
            run: metrics["cache.llc.misses"] for run, metrics in last.items()
        } == alone
        snapshots[jobs] = hub.snapshots
    assert snapshots[1] == snapshots[2]


def test_colocation_point_is_order_independent():
    """A point's result must not depend on what ran earlier in-process.

    Regression for the sweep-runner port: per-point seeds are explicit
    in the spec, so interleaving other work (here a different mode at a
    different load) cannot perturb a point's RNG streams.
    """
    first = _tiny_point()
    _tiny_point(mode="shared", rps=250_000)  # unrelated interleaved work
    again = _tiny_point()
    assert repr(first) == repr(again)


def test_colocation_point_honours_explicit_seed():
    base = _tiny_point()
    reseeded = _tiny_point(seed=TINY.seed + 1)
    assert repr(base) != repr(reseeded)


def test_fig11_point_honours_seed_zero():
    """An explicit seed 0 reaches the driver; it is not replaced by 7."""
    points = [
        SweepPoint(run_fig11, {"num_requests": 600, "seed": seed, "jobs": 1})
        for seed in (0, 7)
    ]
    zero, seven = run_sweep(points, jobs=2).raise_on_failure().values()
    assert repr(zero) == repr(run_fig11(num_requests=600, seed=0))
    assert repr(zero) != repr(seven)
