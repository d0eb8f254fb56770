"""Event-driven simulation engine.

Time is an integer number of picoseconds, which lets the CPU domain
(500 ps per cycle at 2 GHz) and the DRAM domain (1250 ps per cycle at
DDR3-1600's 800 MHz bus clock) coexist without rounding drift.

Components never advance time themselves; they post callbacks and the
engine invokes them in timestamp order. Ties are broken by posting
order, which keeps runs fully deterministic.

Work is scheduled with ``post(delay_ps, callback)`` /
``post_at(time_ps, callback)``: the bare callback is enqueued, with no
event record and no handle, and it always runs. Nothing in the machine
cancels work once posted. ``post_first_at(time_ps, callback)`` is the
one exception to posting order: it posts through ``post_at`` and then
moves the callback ahead of everything already queued for that future
time, so a source that posts its next event from the current one keeps
the place that posting it up front would have given it. Two queue
implementations share this API and one ordering contract:

:class:`Engine` (the default)
    A bucketed calendar queue. Callbacks are grouped into per-timestamp
    buckets (a dict keyed by time) and a small heap orders only the
    *distinct* timestamps. Because hardware models align work to clock
    edges, many events share a timestamp, so a whole clock edge's worth
    of callbacks is dispatched with a single heap operation. Within a
    bucket callbacks run in posting order, which is exactly the
    ``(time, sequence)`` order of the heap reference -- the two engines
    produce byte-identical event orderings for the same schedule.
    Most timestamps hold one callback, so a timestamp's first callback
    is stored bare, as the dict value itself, and a list is made only
    when a second callback arrives for that time: a lone event costs no
    list and no iterator. ``run()`` unqueues a bare entry and then calls
    it, so a callback it posts at the current time forms a new entry
    that runs next.

:class:`HeapqEngine`
    The reference implementation: one binary heap of ``(time, sequence)``
    ordered event records. Kept deliberately simple; property tests
    cross-check the calendar queue against it.
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import Callable, Optional, Sequence

PS_PER_NS = 1_000
PS_PER_US = 1_000_000
PS_PER_MS = 1_000_000_000
PS_PER_S = 1_000_000_000_000


class SimulationError(RuntimeError):
    """Raised for violations of engine scheduling rules."""


def _not_int(time_ps) -> SimulationError:
    return SimulationError(
        f"event time must be an int number of picoseconds, got {time_ps!r}"
    )


class Engine:
    """Deterministic discrete-event engine over a bucketed calendar queue.

    >>> engine = Engine()
    >>> fired = []
    >>> engine.post(100, lambda: fired.append(engine.now))
    >>> engine.run()
    1
    >>> fired
    [100]
    """

    kind = "calendar"

    def __init__(self) -> None:
        self._now = 0
        # time_ps -> its one callback, bare, or the FIFO list of two or more
        self._buckets: dict[int, object] = {}
        self._times: list[int] = []  # heap of the distinct bucket times
        # The list bucket dispatched last and the iterator over it; the
        # iterator's length hint says how many of its callbacks have not
        # started yet.
        self._dispatching_bucket: list = []
        self._dispatching = iter(())
        self._running = False
        self.executed_total = 0

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Callbacks queued and not yet started. Read from inside a
        callback, the running callback and those before it in its bucket
        no longer count; those posted after it at the same time do."""
        pending = 0
        for bucket in self._buckets.values():
            pending += len(bucket) if bucket.__class__ is list else 1
        if self._running and self._buckets.get(self._now) is self._dispatching_bucket:
            # Minus the dispatching list's started callbacks. A running
            # bare callback was unqueued before it was called, and what
            # it posts at the current time has not started.
            bucket = self._dispatching_bucket
            pending -= len(bucket) - self._dispatching.__length_hint__()
        return pending

    # -- scheduling ----------------------------------------------------------

    # The two post methods inline the bucket insert: they are the hottest
    # functions in the whole simulator and every saved call level counts.

    def post(self, delay_ps: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay_ps`` picoseconds from now."""
        if delay_ps < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ps})")
        time_ps = self._now + delay_ps
        if time_ps.__class__ is not int:
            raise _not_int(time_ps)
        buckets = self._buckets
        if time_ps in buckets:
            bucket = buckets[time_ps]
            if bucket.__class__ is list:
                bucket.append(callback)
            else:
                buckets[time_ps] = [bucket, callback]
        else:
            buckets[time_ps] = callback
            heapq.heappush(self._times, time_ps)

    def post_at(self, time_ps: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the absolute time ``time_ps``."""
        if time_ps.__class__ is not int:
            raise _not_int(time_ps)
        if time_ps < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps, already at {self._now} ps"
            )
        buckets = self._buckets
        if time_ps in buckets:
            bucket = buckets[time_ps]
            if bucket.__class__ is list:
                bucket.append(callback)
            else:
                buckets[time_ps] = [bucket, callback]
        else:
            buckets[time_ps] = callback
            heapq.heappush(self._times, time_ps)

    def post_first_at(self, time_ps: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` at ``time_ps``, ahead of every callback already
        queued for that time.

        The post goes through the instance's own ``post_at``, so a
        wrapper installed on the instance sees it like any other post.
        ``time_ps`` must lie strictly after ``now``: the bucket at
        ``now`` may be dispatching.
        """
        if time_ps.__class__ is not int:
            raise _not_int(time_ps)
        if time_ps <= self._now:
            raise SimulationError(
                f"cannot front-post at {time_ps} ps, already at {self._now} ps"
            )
        buckets = self._buckets
        queued = time_ps in buckets
        self.post_at(time_ps, callback)
        if queued:
            # The bucket is a list now; rotate its new last entry to the
            # front.
            bucket = buckets[time_ps]
            bucket.insert(0, bucket.pop())

    # e2ebench/layertrace.py still wraps this name when it attaches; the
    # next change to the benchmark drops that and this alias with it.
    schedule_at = post_at

    # -- execution -----------------------------------------------------------

    def run(self, until_ps: Optional[int] = None) -> int:
        """Run events until the queue drains or ``until_ps`` is reached.

        Events stamped exactly at ``until_ps`` are executed. Returns the
        number of callbacks invoked. After a bounded run, time is advanced
        to ``until_ps`` even if the queue drained earlier, so repeated
        bounded runs tile the timeline predictably. If a callback raises,
        the exception propagates and the next ``run()`` resumes with the
        callback after it.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        executed = 0
        times = self._times
        buckets = self._buckets
        try:
            while times:
                time_ps = times[0]
                if until_ps is not None and time_ps > until_ps:
                    break
                self._now = time_ps
                bucket = buckets[time_ps]
                if bucket.__class__ is not list:
                    # A lone callback: unqueue it, then call it. If it
                    # raises, it has already left the queue.
                    del buckets[time_ps]
                    heapq.heappop(times)
                    bucket()
                    executed += 1
                    continue
                # The list iterator re-checks the length every step, so
                # callbacks that post more work at the current timestamp
                # extend this bucket and the new entries run in this same
                # pass, in append order.
                self._dispatching_bucket = bucket
                self._dispatching = dispatching = iter(bucket)
                try:
                    for callback in dispatching:
                        callback()
                        executed += 1
                except BaseException:
                    # Drop the started callbacks, the raising one included.
                    del bucket[: len(bucket) - dispatching.__length_hint__()]
                    if not bucket:
                        del buckets[time_ps]
                        heapq.heappop(times)
                    raise
                del buckets[time_ps]
                heapq.heappop(times)
        finally:
            self._running = False
            self.executed_total += executed
        if until_ps is not None and self._now < until_ps:
            self._now = until_ps
        return executed


class _HeapEvent:
    """A queued callback of the reference engine, ordered by
    ``(time_ps, seq)``."""

    __slots__ = ("time_ps", "seq", "callback")

    def __init__(self, time_ps: int, seq: int, callback: Callable[[], None]):
        self.time_ps = time_ps
        self.seq = seq
        self.callback = callback

    def __lt__(self, other: "_HeapEvent") -> bool:
        if self.time_ps != other.time_ps:
            return self.time_ps < other.time_ps
        return self.seq < other.seq


class HeapqEngine(Engine):
    """The reference engine: a single binary heap of ``(time, seq)`` events.

    Functionally identical to :class:`Engine` (the property suite asserts
    byte-identical orderings); kept as the straightforward implementation
    the calendar queue is validated -- and benchmarked -- against.
    """

    kind = "heapq"

    def __init__(self) -> None:
        super().__init__()
        self._queue: list[_HeapEvent] = []
        self._seq = 0
        self._first_seq = 0  # falls below 0 with each front post

    @property
    def pending_events(self) -> int:
        # run() pops an event before invoking it.
        return len(self._queue)

    def post(self, delay_ps: int, callback: Callable[[], None]) -> None:
        if delay_ps < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay_ps})")
        self.post_at(self._now + delay_ps, callback)

    def post_at(self, time_ps: int, callback: Callable[[], None]) -> None:
        if time_ps.__class__ is not int:
            raise _not_int(time_ps)
        if time_ps < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps, already at {self._now} ps"
            )
        heapq.heappush(self._queue, _HeapEvent(time_ps, self._seq, callback))
        self._seq += 1

    def post_first_at(self, time_ps: int, callback: Callable[[], None]) -> None:
        if time_ps.__class__ is not int:
            raise _not_int(time_ps)
        if time_ps <= self._now:
            raise SimulationError(
                f"cannot front-post at {time_ps} ps, already at {self._now} ps"
            )
        self.post_at(time_ps, callback)
        # Renumber the new event below every queued one (post_at gave it
        # the highest sequence number), then restore the heap.
        queue = self._queue
        newest = max(queue, key=attrgetter("seq"))
        self._first_seq -= 1
        newest.seq = self._first_seq
        heapq.heapify(queue)

    schedule_at = post_at

    def run(self, until_ps: Optional[int] = None) -> int:
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        executed = 0
        queue = self._queue
        try:
            while queue:
                event = queue[0]
                if until_ps is not None and event.time_ps > until_ps:
                    break
                heapq.heappop(queue)
                self._now = event.time_ps
                event.callback()
                executed += 1
        finally:
            self._running = False
            self.executed_total += executed
        if until_ps is not None and self._now < until_ps:
            self._now = until_ps
        return executed


def run_sampled(engine: Engine, until_ps: int, samplers: Sequence = ()) -> int:
    """Advance ``engine`` to ``until_ps``, taking each sampler's readings
    between engine runs; returns the number of callbacks invoked.

    A sampler has ``next_sample_ps`` (``None`` when nothing is due) and
    ``sample(t_ps)``, which takes the reading and sets the next time.
    The engine runs to the earliest due time, then every sampler due at
    that time samples, in the order given. A reading at ``t`` therefore
    sees every event stamped ``t`` and none after it, and a sampler posts
    nothing, so it cannot change what the machine does. Without a due
    sampler this is one ``engine.run(until_ps=until_ps)`` call.
    """
    executed = 0
    while True:
        due = [s.next_sample_ps for s in samplers if s.next_sample_ps is not None]
        t_ps = min(due, default=until_ps + 1)
        if t_ps > until_ps:
            return executed + engine.run(until_ps=until_ps)
        if t_ps < engine.now:
            raise SimulationError(
                f"a sample was due at {t_ps} ps, but the engine is already "
                f"at {engine.now} ps: it was advanced outside run_sampled()"
            )
        executed += engine.run(until_ps=t_ps)
        for sampler in samplers:
            if sampler.next_sample_ps == t_ps:
                sampler.sample(t_ps)


ENGINE_KINDS = {
    "calendar": Engine,
    "heapq": HeapqEngine,
}


def make_engine(kind: str = "calendar") -> Engine:
    """Build an engine by queue implementation name."""
    try:
        return ENGINE_KINDS[kind]()
    except KeyError:
        raise ValueError(
            f"unknown engine kind {kind!r}; choose from {sorted(ENGINE_KINDS)}"
        ) from None
