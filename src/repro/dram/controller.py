"""The memory controller (PARD Fig. 5).

Request flow, mirroring the paper's numbered steps:

1. A tagged request arrives; the control plane's parameter table supplies
   the DS-id's address mapping, scheduling priority and row-buffer policy.
2. The LDom-physical address is translated to a DRAM address.
3. The request enters the priority queue selected by its DS-id.
4. The arbiter issues requests high-priority-first and, within a
   priority, in strict FIFO order (only a queue's head may dispatch),
   subject to bank timing and data-bus availability.
5. The control plane updates its statistics table (bandwidth, average
   queueing delay, service count) and evaluates triggers at window ticks.

Without a control plane the controller is the Fig. 11 baseline: one
FIFO queue, no address translation, no priority.

The timing model is command-accurate at the granularity of whole
accesses: per-bank row state decides hit/closed/conflict latency
(DDR3-1600 11-11-11, Table 2), tRAS is enforced on precharge, and the
shared data bus serializes bursts. Refresh is not modeled: it would
add the same ~3% to every configuration and no paper experiment depends
on it.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Optional

from repro.dram.bank import BankState
from repro.dram.timing import DramGeometry, DramTiming
from repro.sim.clock import ClockDomain
from repro.sim.component import Component, ResponseCallback
from repro.sim.engine import Engine
from repro.sim.packet import MemoryPacket
from repro.sim.stats import LatencyRecorder


class MemoryController(Component):
    """A single-channel DDR3 memory controller.

    The per-request methods follow the same rules as the caches (see
    DESIGN.md "Memory-hierarchy hot path"): ``engine._now`` instead of
    the ``now`` property, geometry and cycle time precomputed here, no
    callback object built per request, and calls into the engine
    through instance attributes. The control plane's tables are used in
    place: the request path reads a DS-id's address window, priority
    and ``rowbuf`` from its parameter row and adds each served request
    to the plane's service window.
    """

    def __init__(
        self,
        engine: Engine,
        clock: ClockDomain,
        timing: Optional[DramTiming] = None,
        geometry: Optional[DramGeometry] = None,
        control=None,
        hp_row_buffer: bool = True,
        name: str = "memctrl",
        telemetry=None,
    ):
        super().__init__(engine, name, clock)
        self.timing = timing or DramTiming()
        self.geometry = geometry or DramGeometry()
        self.control = control
        self.telemetry = telemetry
        # One FIFO queue per priority level, indexed by priority: high and
        # low with a control plane; the Fig. 11 baseline has a single one.
        priority_levels = 2
        if control is None:
            priority_levels = 1
            hp_row_buffer = False
        self.hp_row_buffer = hp_row_buffer
        self.queues: list[deque[tuple]] = [deque() for _ in range(priority_levels)]
        self._top_priority = priority_levels - 1
        # The arbiter's scan order: highest priority first.
        self._queues_by_rank = self.queues[::-1]
        # The address mapping's geometry and the cycle time, read per request;
        # row_bytes is a power of two (DramGeometry checks), so an
        # address's row number is a shift.
        self._row_shift = self.geometry.row_bytes.bit_length() - 1
        self._total_banks = self.geometry.total_banks
        cycle_ps = self._cycle_ps = clock.period_ps
        # The bank timing in picoseconds, worked out once and shared by
        # every bank (the order BankState takes).
        timing = self.timing
        timing_ps = (
            timing.row_hit_latency * cycle_ps,
            timing.row_closed_latency * cycle_ps,
            timing.row_conflict_latency * cycle_ps,
            timing.t_burst * cycle_ps,
            timing.t_ras * cycle_ps,
        )
        self.banks = [
            BankState(i, timing_ps, hp_row_buffer)
            for i in range(self._total_banks)
        ]
        self.bus_free_at_ps = 0
        self._inflight = 0
        # Per bank, its dispatched requests as ``(request, delay_cycles)``
        # in dispatch order, and the one completion callback its
        # dispatches post (see _pump).
        self._in_service: list[deque[tuple]] = [deque() for _ in self.banks]
        self._completions = [partial(self._pump, fifo) for fifo in self._in_service]
        # Queueing delay per priority level, in memory cycles (Fig. 11).
        self.queue_delay = [
            LatencyRecorder(f"{name}.qdelay.p{p}") for p in range(priority_levels)
        ]
        self._qdelay_samples = [recorder.samples for recorder in self.queue_delay]
        self.served_requests = 0
        self.served_bytes = 0
        if self.telemetry is not None:
            reg = self.telemetry.registry
            reg.gauge_fn(f"dram.{name}.served_requests", lambda: self.served_requests)
            reg.gauge_fn(f"dram.{name}.served_bytes", lambda: self.served_bytes)
            reg.gauge_fn(
                f"dram.{name}.mean_qdelay_cycles",
                lambda: self.mean_queue_delay_cycles,
            )
            # Queueing delay in memory cycles; log-spaced from 1 cycle to
            # ~32k cycles covers idle through heavily-backlogged queues.
            reg.histogram(
                f"dram.{name}.qdelay_cycles", self.queue_delay,
                start=1.0, growth=2.0, count=16,
            )
        # The control plane's parameter rows and service window, used in
        # place (None without a control plane).
        self._parameter_rows = self._service_window = None
        if control is not None:
            self._parameter_rows = control.parameters.row_view
            self._service_window = control.window_service

    # -- request entry ------------------------------------------------------

    def handle_request(self, packet: MemoryPacket, on_response: ResponseCallback) -> None:
        # A writeback carries its block's owner as its DS-id, so it is
        # charged to the owner (PARD §4.1).
        ds_id = packet.ds_id
        dram_addr = packet.addr
        priority = 0
        rows = self._parameter_rows
        # Untracked DS-ids keep their address and the lowest priority.
        if rows is not None and ds_id in rows:
            row = rows[ds_id]
            size = row["addr_size"]
            if size:
                base = row["addr_base"]
                if base >= 0 and 0 <= dram_addr < size:
                    dram_addr += base
                else:
                    # Out of the window: translate raises its error.
                    dram_addr = self.control.translate(ds_id, dram_addr)
            priority = row["priority"]
            top = self._top_priority
            if priority < 0:
                priority = 0
            elif priority > top:
                priority = top
        # Row-interleaved mapping: consecutive rows go to consecutive banks.
        if dram_addr < 0:
            raise ValueError(f"negative DRAM address {dram_addr}")
        row_number = dram_addr >> self._row_shift
        total_banks = self._total_banks
        now = self.engine._now
        # The priority is clamped, so the queue exists: append directly.
        # The entry's layout is documented on _pump.
        self.queues[priority].append(
            (
                packet, row_number % total_banks, row_number // total_banks,
                priority, now, on_response, ds_id,
            )
        )
        if packet.span is not None:
            packet.span.hop(f"{self.name}.enqueue", now)
        self._pump()

    # -- arbitration / issue / completion ------------------------------------

    def _pump(self, finished: Optional[deque] = None) -> None:
        """Retire the oldest request of the bank FIFO ``finished`` (if
        given), then dispatch queued requests to the bank state machines
        (Fig. 5).

        A request's completion event is its bank's entry in
        ``_completions``, ``partial(self._pump, fifo)``, built once: its
        accounting and ``on_response`` run first, then the dispatch scan,
        so one frame both retires a request and refills the freed bank. A
        bank completes in dispatch order: it dispatches only at or after
        its last access's done time, and each access ends after it
        issues, so its completions are posted at increasing times and the
        head of its FIFO is the one that is done. A queued request is the
        tuple ``(packet, bank_index, row, priority, enqueued_at_ps,
        on_response, ds_id)``.

        Each priority class is a strict FIFO: only the head of a queue
        can dispatch, and it dispatches when its bank's state machine is
        free -- so a bank conflict at the head blocks everything behind
        it (head-of-line blocking). That is exactly why the baseline
        single-queue controller shows large queueing delays at moderate
        utilization, and why the control plane's priority queues help: a
        high-priority request waits only for its own queue's head-of-line
        and its own bank, never behind the low-priority backlog.

        Arbitration is strictly "high-priority first" (§4.2): one
        dispatch port, owned by the head of the highest non-empty queue
        even while that head's bank is busy. This keeps the two
        configurations capacity-equivalent (the port, banks and data bus
        are identical); the control plane redistributes *waiting*, which
        is what Fig. 11 measures.
        """
        now = self.engine._now
        if finished is not None:
            request, delay_cycles = finished.popleft()
            packet, _bank, _row, _priority, _enqueued, on_response, ds_id = request
            self._inflight -= 1
            self.served_requests += 1
            self.served_bytes += packet.size
            if packet.span is not None:
                packet.span.hop(f"{self.name}.complete", now)
            window = self._service_window
            if window is not None:
                # [bytes, queueing-delay sum, requests] of the open window.
                if ds_id in window:
                    totals = window[ds_id]
                    totals[0] += packet.size
                    totals[1] += delay_cycles
                    totals[2] += 1
                else:
                    window[ds_id] = [packet.size, delay_cycles, 1]
            on_response(packet)
        banks = self.banks
        while True:
            for queue in self._queues_by_rank:
                if queue:
                    break
            else:
                return
            head = queue[0]
            bank = banks[head[1]]
            if bank.ready_at_ps > now:
                # Strict priority: the preferred head owns the dispatch
                # port even while its bank is busy. No wakeup is needed:
                # a bank's ready time is the done time of its last
                # access, whose completion runs _pump then.
                return
            queue.popleft()
            packet, bank_index, row, priority, enqueued_at_ps, _on_response, ds_id = head
            # High priority may use the extra row buffer, if its DS-id's
            # rowbuf parameter allows (untracked DS-ids may).
            high_priority = False
            if self.hp_row_buffer and priority != 0:
                rows = self._parameter_rows
                high_priority = rows is None or ds_id not in rows or rows[ds_id]["rowbuf"] != 0
            # The shared data bus serializes bursts.
            self.bus_free_at_ps = bank.issue(
                row, now, self.bus_free_at_ps, high_priority
            )
            delay_cycles = (now - enqueued_at_ps) / self._cycle_ps
            # LatencyRecorder.record, minus its frame: the recorder folds
            # bare appends into its summaries when they are read.
            self._qdelay_samples[priority].append(delay_cycles)
            if packet.span is not None:
                packet.span.hop(f"{self.name}.issue", now)
            self._inflight += 1
            self._in_service[bank_index].append((head, delay_cycles))
            self.engine.post_at(bank.ready_at_ps, self._completions[bank_index])

    # -- introspection ------------------------------------------------------------

    @property
    def mean_queue_delay_cycles(self) -> float:
        count = sum(recorder.count for recorder in self.queue_delay)
        if not count:
            return 0.0
        return sum(recorder.total for recorder in self.queue_delay) / count
