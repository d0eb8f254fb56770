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
shared data bus serializes bursts. Refresh is modeled but off by
default (it would add the same ~3% to every configuration and no paper
experiment depends on it); see :meth:`MemoryController._refresh`.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.dram.bank import BankState
from repro.dram.scheduler import PendingRequest, PriorityFrFcfsScheduler
from repro.dram.timing import DramGeometry, DramTiming, decompose_address
from repro.sim.clock import ClockDomain
from repro.sim.component import Component, ResponseCallback
from repro.sim.engine import Engine
from repro.sim.packet import MemOp, MemoryPacket
from repro.sim.stats import LatencyRecorder

_WRITEBACK = MemOp.WRITEBACK


class MemoryController(Component):
    """A single-channel DDR3 memory controller.

    The per-request methods follow the same rules as the caches (see
    DESIGN.md "Memory-hierarchy hot path"): ``engine._now`` instead of
    the ``now`` property, ``functools.partial`` callbacks, and calls into
    the control plane and engine through instance attributes.
    """

    def __init__(
        self,
        engine: Engine,
        clock: ClockDomain,
        timing: Optional[DramTiming] = None,
        geometry: Optional[DramGeometry] = None,
        control=None,
        priority_levels: int = 2,
        hp_row_buffer: bool = True,
        enable_refresh: bool = False,
        translate_addresses: bool = True,
        name: str = "memctrl",
        telemetry=None,
    ):
        super().__init__(engine, name, clock)
        self.timing = timing or DramTiming()
        self.geometry = geometry or DramGeometry()
        self.control = control
        self.translate_addresses = translate_addresses
        self.telemetry = (
            telemetry if (telemetry is not None and telemetry.enabled) else None
        )
        self._qdelay_hist = None
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
            self._qdelay_hist = reg.histogram(
                f"dram.{name}.qdelay_cycles", start=1.0, growth=2.0, count=16
            )
        if control is None:
            # Fig. 11 baseline: a single FIFO queue.
            priority_levels = 1
            hp_row_buffer = False
        self.hp_row_buffer = hp_row_buffer
        self.scheduler = PriorityFrFcfsScheduler(priority_levels)
        # The arbiter's scan order: highest priority first.
        self._queues_by_rank = self.scheduler.queues[::-1]
        self.banks = [
            BankState(i, hp_row_buffer=hp_row_buffer)
            for i in range(self.geometry.total_banks)
        ]
        self.bus_free_at_ps = 0
        self._inflight = 0
        # Queueing delay per priority level, in memory cycles (Fig. 11).
        self.queue_delay = [
            LatencyRecorder(f"{name}.qdelay.p{p}") for p in range(priority_levels)
        ]
        self.served_requests = 0
        self.served_bytes = 0
        self.refreshes_performed = 0
        if control is not None:
            control.bind_controller(self)
        if enable_refresh:
            self.engine.post(
                self.timing.t_refi * clock.period_ps, self._refresh
            )

    def _refresh(self) -> None:
        """All-bank refresh: precharge every row and block the banks for
        tRFC. Off by default (it costs every configuration the same
        ~tRFC/tREFI ≈ 3% and no paper experiment depends on it); enable
        with ``enable_refresh=True`` for refresh-sensitivity studies.
        """
        cycle_ps = self.clock.period_ps
        blocked_until = self.now + self.timing.t_rfc * cycle_ps
        for bank in self.banks:
            bank.close()
            if bank.ready_at_ps < blocked_until:
                bank.ready_at_ps = blocked_until
        self.refreshes_performed += 1
        self.engine.post(self.timing.t_refi * cycle_ps, self._refresh)
        self.engine.post_at(blocked_until, self._pump)

    # -- request entry ------------------------------------------------------

    def handle_request(self, packet: MemoryPacket, on_response: ResponseCallback) -> None:
        # The accounting DS-id: a writeback is charged to the block's owner.
        ds_id = packet.ds_id
        if packet.op is _WRITEBACK and packet.owner_ds_id is not None:
            ds_id = packet.owner_ds_id
        control = self.control
        dram_addr = packet.addr
        if control is not None and self.translate_addresses:
            dram_addr = control.translate(ds_id, dram_addr)
        bank_index, row, _column = decompose_address(dram_addr, self.geometry)
        if control is None:
            priority = 0
        else:
            priority = control.priority(ds_id)
            top = self.scheduler.priority_levels - 1
            if priority < 0:
                priority = 0
            elif priority > top:
                priority = top
        now = self.engine._now
        self.scheduler.enqueue(
            PendingRequest(packet, bank_index, row, priority, now, on_response, ds_id)
        )
        if packet.span is not None:
            packet.span.hop(f"{self.name}.enqueue", now)
        self._pump()

    # -- arbitration / issue --------------------------------------------------

    def _pump(self) -> None:
        """Dispatch queued requests to bank state machines (Fig. 5).

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
        while True:
            for queue in self._queues_by_rank:
                if queue:
                    break
            else:
                return
            head = queue[0]
            if self.banks[head.bank_index].ready_at_ps > now:
                # Strict priority: the preferred head owns the dispatch
                # port even while its bank is busy. No wakeup is needed:
                # a bank's ready time is the done time of its last
                # access, whose _complete runs _pump then, and a refresh
                # posts its own _pump.
                return
            queue.popleft()
            self._issue(head, now)

    def _issue(self, request: PendingRequest, issue_ps: int) -> None:
        bank = self.banks[request.bank_index]
        priority = request.priority
        # High priority may use the extra row buffer, if its DS-id's
        # rowbuf parameter allows.
        high_priority = (
            self.hp_row_buffer
            and priority != 0
            and (self.control is None or bool(self.control.rowbuf_enabled(request.ds_id)))
        )
        timing = self.timing
        latency_cycles = bank.access_latency_cycles(request.row, timing, high_priority)
        cycle_ps = self.clock.period_ps
        burst_ps = timing.t_burst * cycle_ps
        # The shared data bus serializes bursts; row preparation overlaps
        # with other banks' transfers.
        data_start_ps = issue_ps + (latency_cycles - timing.t_burst) * cycle_ps
        if data_start_ps < self.bus_free_at_ps:
            data_start_ps = self.bus_free_at_ps
        done_ps = bank.record_access(
            request.row, issue_ps, data_start_ps + burst_ps, timing, cycle_ps,
            high_priority,
        )
        self.bus_free_at_ps = data_start_ps + burst_ps
        request.issued_at_ps = issue_ps
        delay_cycles = (issue_ps - request.enqueued_at_ps) / cycle_ps
        self.queue_delay[priority].record(delay_cycles)
        if self._qdelay_hist is not None:
            self._qdelay_hist.record(delay_cycles)
        if request.packet.span is not None:
            request.packet.span.hop(f"{self.name}.issue", issue_ps)
        self._inflight += 1
        self.engine.post_at(
            done_ps, partial(self._complete, request, delay_cycles, done_ps)
        )

    def _complete(self, request: PendingRequest, delay_cycles: float, done_ps: int) -> None:
        self._inflight -= 1
        packet = request.packet
        self.served_requests += 1
        self.served_bytes += packet.size
        if packet.span is not None:
            packet.span.hop(f"{self.name}.complete", done_ps)
        if self.control is not None:
            total_cycles = (done_ps - request.enqueued_at_ps) / self.clock.period_ps
            self.control.record_service(
                request.ds_id, packet.size, delay_cycles, total_cycles
            )
        request.on_response(packet)
        self._pump()

    # -- introspection ------------------------------------------------------------

    @property
    def mean_queue_delay_cycles(self) -> float:
        count = sum(recorder.count for recorder in self.queue_delay)
        if not count:
            return 0.0
        return sum(recorder.total for recorder in self.queue_delay) / count
