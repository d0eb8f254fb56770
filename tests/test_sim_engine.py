"""Unit tests for the discrete-event engine.

Every test runs against both queue implementations (the bucketed
calendar queue and the heapq reference) via the ``engine`` fixture --
the two must be behaviorally indistinguishable.
"""

import pytest

from repro.sim.engine import (
    ENGINE_KINDS,
    Engine,
    HeapqEngine,
    PS_PER_MS,
    SimulationError,
    make_engine,
)


@pytest.fixture(params=sorted(ENGINE_KINDS))
def engine(request):
    return make_engine(request.param)


def test_make_engine_kinds():
    # Importing the rest of the package registers no extra kinds.
    import repro.runner  # noqa: F401
    import repro.system.server  # noqa: F401
    import repro.telemetry  # noqa: F401

    assert sorted(ENGINE_KINDS) == ["calendar", "heapq"]
    assert isinstance(make_engine("calendar"), Engine)
    assert isinstance(make_engine("heapq"), HeapqEngine)
    with pytest.raises(ValueError):
        make_engine("splay")


def test_initial_time_is_zero(engine):
    assert engine.now == 0


def test_schedule_and_run_single_event(engine):
    fired = []
    engine.schedule(100, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [100]
    assert engine.now == 100


def test_events_run_in_timestamp_order(engine):
    order = []
    engine.schedule(300, lambda: order.append("c"))
    engine.schedule(100, lambda: order.append("a"))
    engine.schedule(200, lambda: order.append("b"))
    engine.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_scheduling_order(engine):
    order = []
    engine.schedule(50, lambda: order.append(1))
    engine.schedule(50, lambda: order.append(2))
    engine.schedule(50, lambda: order.append(3))
    engine.run()
    assert order == [1, 2, 3]


def test_post_and_schedule_interleave_in_scheduling_order(engine):
    order = []
    engine.post(50, lambda: order.append(1))
    engine.schedule(50, lambda: order.append(2))
    engine.post(50, lambda: order.append(3))
    engine.run()
    assert order == [1, 2, 3]


def test_negative_delay_rejected(engine):
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)
    with pytest.raises(SimulationError):
        engine.post(-1, lambda: None)


def test_schedule_at_in_past_rejected(engine):
    engine.schedule(100, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(50, lambda: None)
    with pytest.raises(SimulationError):
        engine.post_at(50, lambda: None)


def test_run_until_executes_events_at_boundary(engine):
    fired = []
    engine.schedule(100, lambda: fired.append(100))
    engine.schedule(200, lambda: fired.append(200))
    engine.schedule(201, lambda: fired.append(201))
    engine.run(until_ps=200)
    assert fired == [100, 200]
    assert engine.now == 200


def test_run_until_advances_time_even_if_queue_drains(engine):
    engine.schedule(10, lambda: None)
    engine.run(until_ps=500)
    assert engine.now == 500


def test_run_for_is_relative(engine):
    engine.schedule(100, lambda: None)
    engine.run(until_ps=100)
    engine.run_for(50)
    assert engine.now == 150


def test_events_scheduled_from_callbacks(engine):
    fired = []

    def first():
        fired.append(("first", engine.now))
        engine.schedule(25, second)

    def second():
        fired.append(("second", engine.now))

    engine.schedule(10, first)
    engine.run()
    assert fired == [("first", 10), ("second", 35)]


def test_same_timestamp_event_scheduled_from_callback_runs_same_pass(engine):
    fired = []

    def first():
        fired.append("first")
        engine.schedule(0, lambda: fired.append("nested"))

    engine.schedule(10, first)
    engine.schedule(10, lambda: fired.append("second"))
    assert engine.run() == 3
    assert fired == ["first", "second", "nested"]


def test_cancel_prevents_execution(engine):
    fired = []
    handle = engine.schedule(10, lambda: fired.append("x"))
    handle.cancel()
    engine.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_is_idempotent(engine):
    handle = engine.schedule(10, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled
    assert engine.pending_events == 0


def test_pending_events_is_constant_time_and_ignores_cancelled(engine):
    """Cancelled events stop counting the instant they are cancelled."""
    engine.schedule(10, lambda: None)
    handle = engine.schedule(20, lambda: None)
    assert engine.pending_events == 2
    handle.cancel()
    assert engine.pending_events == 1
    # Repeated cancellation must not double-decrement.
    handle.cancel()
    assert engine.pending_events == 1
    engine.run()
    assert engine.pending_events == 0


def test_pending_events_counts_posts(engine):
    engine.post(10, lambda: None)
    engine.post(10, lambda: None)
    engine.post(99, lambda: None)
    assert engine.pending_events == 3
    engine.run(until_ps=10)
    assert engine.pending_events == 1


def test_mass_cancellation_triggers_lazy_purge(engine):
    """Cancelling most of a large queue purges the dead records; the
    survivors still run in order."""
    fired = []
    handles = [
        engine.schedule(10 * (i + 1), lambda i=i: fired.append(i))
        for i in range(500)
    ]
    for i, handle in enumerate(handles):
        if i % 10:
            handle.cancel()
    assert engine.pending_events == 50
    executed = engine.run()
    assert executed == 50
    assert fired == [i for i in range(500) if i % 10 == 0]
    assert engine.pending_events == 0


def test_cancel_within_same_timestamp_bucket(engine):
    """A callback can cancel a later event at its own timestamp."""
    fired = []
    handles = {}

    def first():
        fired.append("first")
        handles["b"].cancel()

    engine.schedule(10, first)
    handles["b"] = engine.schedule(10, lambda: fired.append("b"))
    engine.schedule(10, lambda: fired.append("c"))
    engine.run()
    assert fired == ["first", "c"]


def test_cancel_after_execution_is_noop(engine):
    """Cancelling a handle whose event already fired must not disturb
    the live-event counter (regression: it once went negative)."""
    fired = []
    handle = engine.schedule(10, lambda: fired.append(1))
    engine.schedule(20, lambda: None)
    engine.run(until_ps=15)
    handle.cancel()
    assert fired == [1]
    assert engine.pending_events == 1
    engine.run()
    assert engine.pending_events == 0


def test_stop_halts_run_loop(engine):
    fired = []
    engine.schedule(10, lambda: fired.append(1))
    engine.schedule(20, engine.stop)
    engine.schedule(30, lambda: fired.append(3))
    engine.run()
    assert fired == [1]
    # The remaining event is still queued and runs on the next run().
    engine.run()
    assert fired == [1, 3]


def test_stop_mid_bucket_resumes_remaining_same_timestamp_events(engine):
    fired = []
    engine.schedule(10, lambda: fired.append(1))
    engine.schedule(10, engine.stop)
    engine.schedule(10, lambda: fired.append(3))
    engine.schedule(10, lambda: fired.append(4))
    engine.run()
    assert fired == [1]
    assert engine.now == 10
    assert engine.pending_events == 2
    engine.run()
    assert fired == [1, 3, 4]


def test_run_is_not_reentrant(engine):
    def nested():
        with pytest.raises(SimulationError):
            engine.run()

    engine.schedule(1, nested)
    engine.run()


def test_returns_executed_count(engine):
    for delay in (1, 2, 3):
        engine.schedule(delay, lambda: None)
    assert engine.run() == 3
    assert engine.executed_total == 3


def test_time_unit_properties(engine):
    engine.schedule(2 * PS_PER_MS, lambda: None)
    engine.run()
    assert engine.now_ms == pytest.approx(2.0)
    assert engine.now_us == pytest.approx(2000.0)
    assert engine.now_ns == pytest.approx(2_000_000.0)


def test_drain_runs_immediate_callbacks(engine):
    fired = []
    engine.drain([lambda: fired.append("a"), lambda: fired.append("b")])
    assert fired == ["a", "b"]
