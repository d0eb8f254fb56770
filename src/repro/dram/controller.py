"""The memory controller (PARD Fig. 5).

Request flow, mirroring the paper's numbered steps:

1. A tagged request arrives; the control plane's parameter table supplies
   the DS-id's address mapping, scheduling priority and row-buffer policy.
2. The LDom-physical address is translated to a DRAM address.
3. The request enters the priority queue selected by its DS-id.
4. The arbiter issues requests high-priority-first, FR-FCFS within a
   priority, subject to bank timing and data-bus availability.
5. The control plane updates its statistics table (bandwidth, average
   queueing delay, service count) and evaluates triggers at window ticks.

Without a control plane the controller is the Fig. 11 baseline: one
FR-FCFS queue, no address translation, no priority.

The timing model is command-accurate at the granularity of whole
accesses: per-bank row state decides hit/closed/conflict latency
(DDR3-1600 11-11-11, Table 2), tRAS is enforced on precharge, and the
shared data bus serializes bursts. Refresh is modeled but off by
default (it would add the same ~3% to every configuration and no paper
experiment depends on it); see :meth:`MemoryController._refresh`.
"""

from __future__ import annotations

from typing import Optional

from repro.dram.bank import BankState
from repro.dram.scheduler import PendingRequest, PriorityFrFcfsScheduler
from repro.dram.timing import DramGeometry, DramTiming, decompose_address
from repro.sim.clock import ClockDomain
from repro.sim.component import Component, ResponseCallback
from repro.sim.engine import Engine
from repro.sim.packet import MemoryPacket
from repro.sim.stats import LatencyRecorder


class MemoryController(Component):
    """A single-channel DDR3 memory controller."""

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
            # Fig. 11 baseline: a single queue, plain FR-FCFS.
            priority_levels = 1
            hp_row_buffer = False
        self.hp_row_buffer = hp_row_buffer
        self.scheduler = PriorityFrFcfsScheduler(priority_levels)
        self.banks = [
            BankState(i, hp_row_buffer=hp_row_buffer)
            for i in range(self.geometry.total_banks)
        ]
        self.bus_free_at_ps = 0
        self._wakeup_handle = None
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
        ds_id = packet.effective_ds_id
        dram_addr = self._translate(ds_id, packet.addr)
        bank_index, row, _column = decompose_address(dram_addr, self.geometry)
        priority = self._priority(ds_id)
        request = PendingRequest(
            packet=packet,
            bank_index=bank_index,
            row=row,
            priority=priority,
            enqueued_at_ps=self.now,
            on_response=on_response,
        )
        self.scheduler.enqueue(request)
        if packet.span is not None:
            packet.span.hop(f"{self.name}.enqueue", self.now)
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
        while True:
            head = None
            for priority in range(self.scheduler.priority_levels - 1, -1, -1):
                head = self.scheduler.head(priority)
                if head is not None:
                    break
            if head is None:
                return
            bank = self.banks[head.bank_index]
            if bank.ready_at_ps > self.now:
                # Strict priority: the preferred head owns the dispatch
                # port even while its bank is busy.
                self._arm_wakeup(bank.ready_at_ps)
                return
            self.scheduler.pop_head(head.priority)
            self._issue(head)

    def _issue(self, request: PendingRequest) -> None:
        bank = self.banks[request.bank_index]
        high_priority = self._is_high_priority(request)
        latency_cycles = bank.access_latency_cycles(
            request.row, self.timing, high_priority
        )
        cycle_ps = self.clock.period_ps
        issue_ps = self.now
        pre_data_ps = (latency_cycles - self.timing.t_burst) * cycle_ps
        burst_ps = self.timing.t_burst * cycle_ps
        # The shared data bus serializes bursts; row preparation overlaps
        # with other banks' transfers.
        data_start_ps = max(issue_ps + pre_data_ps, self.bus_free_at_ps)
        done_ps = data_start_ps + burst_ps
        done_ps = bank.record_access(
            request.row, issue_ps, done_ps, self.timing, cycle_ps, high_priority
        )
        self.bus_free_at_ps = data_start_ps + burst_ps
        request.issued_at_ps = issue_ps
        delay_cycles = (issue_ps - request.enqueued_at_ps) / cycle_ps
        self.queue_delay[request.priority].record(delay_cycles)
        if self._qdelay_hist is not None:
            self._qdelay_hist.record(delay_cycles)
        if request.packet.span is not None:
            request.packet.span.hop(f"{self.name}.issue", issue_ps)
        self._inflight += 1
        self.engine.post_at(done_ps, lambda: self._complete(request, delay_cycles, done_ps))

    def _complete(self, request: PendingRequest, delay_cycles: float, done_ps: int) -> None:
        self._inflight -= 1
        self.served_requests += 1
        self.served_bytes += request.packet.size
        if request.packet.span is not None:
            request.packet.span.hop(f"{self.name}.complete", done_ps)
        if self.control is not None:
            total_cycles = (done_ps - request.enqueued_at_ps) / self.clock.period_ps
            self.control.record_service(
                request.ds_id, request.packet.size, delay_cycles, total_cycles
            )
        request.on_response(request.packet)
        self._pump()

    def _arm_wakeup(self, wake_at_ps: int) -> None:
        """Schedule the next arbitration pass (deduplicated)."""
        if wake_at_ps <= self.now:
            return
        if self._wakeup_handle is not None and not self._wakeup_handle.cancelled:
            if self._wakeup_handle.time_ps <= wake_at_ps:
                return
            self._wakeup_handle.cancel()
        self._wakeup_handle = self.engine.schedule_at(wake_at_ps, self._pump)

    # -- control-plane consultation ------------------------------------------------

    def _translate(self, ds_id: int, addr: int) -> int:
        if self.control is None or not self.translate_addresses:
            return addr
        return self.control.translate(ds_id, addr)

    def _priority(self, ds_id: int) -> int:
        if self.control is None:
            return 0
        priority = self.control.priority(ds_id)
        return max(0, min(priority, self.scheduler.priority_levels - 1))

    def _is_high_priority(self, request: PendingRequest) -> bool:
        if not self.hp_row_buffer or request.priority == 0:
            return False
        if self.control is None:
            return True
        return bool(self.control.rowbuf_enabled(request.ds_id))

    # -- introspection ------------------------------------------------------------

    @property
    def mean_queue_delay_cycles(self) -> float:
        count = sum(recorder.count for recorder in self.queue_delay)
        if not count:
            return 0.0
        return sum(recorder.total for recorder in self.queue_delay) / count
