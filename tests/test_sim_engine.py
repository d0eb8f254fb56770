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
    SimulationError,
    make_engine,
    run_sampled,
)


@pytest.fixture(params=sorted(ENGINE_KINDS))
def engine(request):
    return make_engine(request.param)


def test_make_engine_kinds():
    # Importing the rest of the package registers no extra kinds.
    import repro.runner.sweep  # noqa: F401
    import repro.system.server  # noqa: F401
    import repro.telemetry.hub  # noqa: F401

    assert sorted(ENGINE_KINDS) == ["calendar", "heapq"]
    assert isinstance(make_engine("calendar"), Engine)
    assert isinstance(make_engine("heapq"), HeapqEngine)
    with pytest.raises(ValueError):
        make_engine("splay")


def test_initial_time_is_zero(engine):
    assert engine.now == 0


def test_schedule_and_run_single_event(engine):
    fired = []
    engine.post(100, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [100]
    assert engine.now == 100


def test_events_run_in_timestamp_order(engine):
    order = []
    engine.post(300, lambda: order.append("c"))
    engine.post(100, lambda: order.append("a"))
    engine.post(200, lambda: order.append("b"))
    engine.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_scheduling_order(engine):
    order = []
    engine.post(50, lambda: order.append(1))
    engine.post(50, lambda: order.append(2))
    engine.post(50, lambda: order.append(3))
    engine.run()
    assert order == [1, 2, 3]


def test_post_and_schedule_interleave_in_scheduling_order(engine):
    order = []
    engine.post(50, lambda: order.append(1))
    engine.post_at(50, lambda: order.append(2))
    engine.post(50, lambda: order.append(3))
    engine.run()
    assert order == [1, 2, 3]


def test_negative_delay_rejected(engine):
    with pytest.raises(SimulationError):
        engine.post(-1, lambda: None)
    assert engine.pending_events == 0


def test_schedule_at_in_past_rejected(engine):
    engine.post(100, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.post_at(50, lambda: None)
    assert engine.pending_events == 0


def test_run_until_executes_events_at_boundary(engine):
    fired = []
    engine.post(100, lambda: fired.append(100))
    engine.post(200, lambda: fired.append(200))
    engine.post(201, lambda: fired.append(201))
    engine.run(until_ps=200)
    assert fired == [100, 200]
    assert engine.now == 200


def test_run_until_advances_time_even_if_queue_drains(engine):
    engine.post(10, lambda: None)
    engine.run(until_ps=500)
    assert engine.now == 500


def test_bounded_run_from_now_is_relative(engine):
    engine.post(100, lambda: None)
    engine.run(until_ps=100)
    engine.run(until_ps=engine.now + 50)
    assert engine.now == 150


def test_events_scheduled_from_callbacks(engine):
    fired = []

    def first():
        fired.append(("first", engine.now))
        engine.post(25, second)

    def second():
        fired.append(("second", engine.now))

    engine.post(10, first)
    engine.run()
    assert fired == [("first", 10), ("second", 35)]


def test_same_timestamp_event_scheduled_from_callback_runs_same_pass(engine):
    fired = []

    def first():
        fired.append("first")
        engine.post(0, lambda: fired.append("nested"))

    engine.post(10, first)
    engine.post(10, lambda: fired.append("second"))
    assert engine.run() == 3
    assert fired == ["first", "second", "nested"]


def test_pending_events_counts_posts(engine):
    engine.post(10, lambda: None)
    engine.post(10, lambda: None)
    engine.post(99, lambda: None)
    assert engine.pending_events == 3
    engine.run(until_ps=10)
    assert engine.pending_events == 1


def test_run_is_not_reentrant(engine):
    def nested():
        with pytest.raises(SimulationError):
            engine.run()

    engine.post(1, nested)
    engine.run()


def test_returns_executed_count(engine):
    for delay in (1, 2, 3):
        engine.post(delay, lambda: None)
    assert engine.run() == 3
    assert engine.executed_total == 3


def test_drain_runs_immediate_callbacks(engine):
    fired = []
    engine.post(0, lambda: fired.append("a"))
    engine.post(0, lambda: fired.append("b"))
    assert engine.run() == 2
    assert fired == ["a", "b"]


class _Boom(Exception):
    pass


def _raise_boom():
    raise _Boom


def test_raising_callback_is_not_rerun(engine):
    """A callback that raises is dropped with the callbacks before it;
    the next run() resumes with the one after it."""
    fired = []

    def boom():
        engine.post(0, lambda: fired.append("d"))  # same pass, after c
        fired.append("raised")
        raise _Boom

    engine.post(10, lambda: fired.append("a"))
    engine.post(10, boom)
    engine.post(10, lambda: fired.append("c"))
    with pytest.raises(_Boom):
        engine.run()
    assert fired == ["a", "raised"]
    assert engine.executed_total == 1
    assert engine.pending_events == 2
    assert engine.run() == 2
    assert fired == ["a", "raised", "c", "d"]
    assert engine.executed_total == 3
    assert engine.pending_events == 0


def test_raising_last_callback_drops_its_timestamp(engine):
    fired = []
    engine.post(10, lambda: fired.append(10))
    engine.post(10, _raise_boom)
    engine.post(20, lambda: fired.append(20))
    with pytest.raises(_Boom):
        engine.run()
    assert engine.now == 10
    assert engine.pending_events == 1
    assert engine.run(until_ps=30) == 1
    assert fired == [10, 20]
    assert engine.now == 30
    assert engine.pending_events == 0


def test_pending_events_inside_callback_counts_only_unstarted(engine):
    """Read mid-bucket, pending_events excludes the running callback and
    those before it, and counts same-timestamp posts appended behind it."""
    seen = []

    def middle():
        seen.append(engine.pending_events)  # "last" and the t=20 event
        engine.post(0, lambda: seen.append(engine.pending_events))
        seen.append(engine.pending_events)
        engine.post(5, lambda: None)
        seen.append(engine.pending_events)

    engine.post(10, lambda: seen.append(engine.pending_events))
    engine.post(10, middle)
    engine.post(10, lambda: seen.append(engine.pending_events))
    engine.post(20, lambda: None)
    assert engine.pending_events == 4
    engine.run()
    # first: 3 unstarted; middle: 2, then 3 and 4 after its posts; "last"
    # leaves the appended callback and the t=15 and t=20 events; the
    # appended callback leaves the t=15 and t=20 events.
    assert seen == [3, 2, 3, 4, 3, 2]
    assert engine.pending_events == 0


def test_post_rejects_float_time(engine):
    with pytest.raises(SimulationError):
        engine.post(1.5, lambda: None)
    with pytest.raises(SimulationError):
        engine.post(0.0, lambda: None)
    with pytest.raises(SimulationError):
        engine.post_at(10.0, lambda: None)
    assert engine.pending_events == 0


def test_negative_delay_and_past_time_rejected_mid_run(engine):
    errors = []

    def probe():
        for post in (lambda: engine.post(-1, _raise_boom),
                     lambda: engine.post_at(engine.now - 1, _raise_boom)):
            try:
                post()
            except SimulationError as exc:
                errors.append(exc)

    engine.post(100, probe)
    assert engine.run() == 1
    assert len(errors) == 2
    assert engine.pending_events == 0


def test_post_first_at_runs_ahead_of_earlier_posts(engine):
    order = []
    engine.post_at(50, lambda: order.append("a"))
    engine.post_at(50, lambda: order.append("b"))
    engine.post_first_at(50, lambda: order.append("first"))
    engine.post_at(50, lambda: order.append("c"))
    # A later front post goes ahead of the earlier one.
    engine.post_first_at(50, lambda: order.append("firster"))
    engine.post_first_at(60, lambda: order.append("alone"))
    assert engine.pending_events == 6
    assert engine.run() == 6
    assert order == ["firster", "first", "a", "b", "c", "alone"]


def test_post_first_at_from_a_callback(engine):
    order = []

    def source():
        order.append("source")
        engine.post_first_at(engine.now + 10, lambda: order.append("next"))
        assert engine.pending_events == 2

    engine.post(10, source)
    engine.post(20, lambda: order.append("queued"))
    engine.run()
    assert order == ["source", "next", "queued"]


def test_post_first_at_rejects_now_past_and_non_int(engine):
    errors = []

    def probe():
        for time_ps in (engine.now, engine.now - 1, engine.now + 1.0):
            try:
                engine.post_first_at(time_ps, _raise_boom)
            except SimulationError as exc:
                errors.append(exc)

    with pytest.raises(SimulationError):
        engine.post_first_at(0, _raise_boom)  # now, before any run
    engine.post(100, probe)
    engine.post(100, lambda: None)  # the bucket at now is still dispatching
    assert engine.run() == 2
    assert len(errors) == 3
    assert engine.pending_events == 0


def test_post_first_at_goes_through_an_instance_post_at_wrapper(engine):
    """A wrapper installed on the instance, as e2ebench/layertrace.py
    installs one, sees and wraps a front post like any other post."""
    seen, order = [], []
    raw_post_at = engine.post_at

    def post_at(time_ps, callback):
        seen.append(time_ps)

        def wrapped():
            order.append("wrapped")
            callback()

        raw_post_at(time_ps, wrapped)

    engine.post_at = post_at
    engine.post_at(30, lambda: order.append("queued"))
    engine.post_first_at(30, lambda: order.append("first"))
    assert seen == [30, 30]
    engine.run()
    assert order == ["wrapped", "first", "wrapped", "queued"]


class _Sampler:
    """A run_sampled sampler that records when it sampled, and what had
    fired by then."""

    def __init__(self, first_ps, period_ps, fired, log):
        self.next_sample_ps = first_ps
        self.period_ps = period_ps
        self.fired = fired
        self.log = log

    def sample(self, t_ps):
        self.log.append((t_ps, self, list(self.fired)))
        self.next_sample_ps = t_ps + self.period_ps


def test_run_sampled_samples_after_every_event_at_its_time(engine):
    fired, log = [], []
    for t in (10, 20, 20, 30):
        engine.post_at(t, lambda t=t: fired.append(t))
    every_10 = _Sampler(10, 10, fired, log)
    every_20 = _Sampler(20, 20, fired, log)
    assert run_sampled(engine, 35, (every_10, every_20)) == 4
    assert engine.now == 35
    assert log == [
        (10, every_10, [10]),
        (20, every_10, [10, 20, 20]),  # in the order given
        (20, every_20, [10, 20, 20]),
        (30, every_10, [10, 20, 20, 30]),
    ]
    # The next run picks each schedule up where it left off.
    run_sampled(engine, 40, (every_10, every_20))
    assert [(t, s) for t, s, _ in log[4:]] == [(40, every_10), (40, every_20)]
    assert engine.executed_total == 4  # samplers post nothing


def test_run_sampled_without_due_samplers_is_one_bounded_run(engine):
    runs = []
    raw_run = engine.run
    engine.run = lambda until_ps=None: runs.append(until_ps) or raw_run(until_ps)
    engine.post(10, lambda: None)
    idle = _Sampler(None, 10, [], [])
    later = _Sampler(500, 10, [], [])
    assert run_sampled(engine, 100, (idle, later)) == 1
    assert run_sampled(engine, 200) == 0
    assert runs == [100, 200]
    assert engine.now == 200


def test_run_sampled_refuses_a_sample_already_passed(engine):
    sampler = _Sampler(10, 10, [], [])
    engine.run(until_ps=25)
    with pytest.raises(SimulationError):
        run_sampled(engine, 50, (sampler,))
