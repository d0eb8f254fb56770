"""The timing CPU core.

The core is a workload interpreter: a workload supplies a generator of
ops and the core charges time for them against the shared engine
timeline.

Op vocabulary (tuples, first element is the kind):

``("compute", cycles)``
    Execute for ``cycles`` core cycles.
``("loads", [addr, ...])``
    A batch of independent tagged loads from LDom-physical addresses,
    issued together into the core's memory port (the private L1) and
    waited on together -- the op-level expression of memory-level
    parallelism in an out-of-order window. A single load is a batch of
    one.
``("store", addr)``
    One tagged store. The core blocks until the line is owned
    (write-allocate makes the timing identical to a load's).
``("call", fn)``
    Invoke ``fn()`` at the current simulated time (workloads use this to
    timestamp request completions). Takes no simulated time.
``("block",)``
    Park the core until something calls :meth:`CpuCore.wake` (an idle
    memcached worker waiting for a request arrival).
``("io", packet)``
    A programmed-I/O access handed to the core's I/O port.

Small compute blocks and cache hits are *accumulated* and only
materialized as a single engine event when the accumulated time crosses
``flush_threshold_cycles`` or an asynchronous wait begins, which keeps
the event count per simulated second manageable without altering any
modeled latency by more than the threshold (100 cycles = 50 ns by
default, well below every latency the experiments measure).
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from repro.core.tagging import TagRegister
from repro.sim.clock import ClockDomain
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.sim.packet import MemOp, MemoryPacket

_READ, _WRITE = MemOp.READ, MemOp.WRITE


class CoreState(Enum):
    IDLE = "idle"
    RUNNING = "running"
    WAITING_MEM = "waiting_mem"
    WAITING_IO = "waiting_io"
    BLOCKED = "blocked"
    DONE = "done"


class CpuCore(Component):
    """A single CPU core with a DS-id tag register."""

    def __init__(
        self,
        engine: Engine,
        clock: ClockDomain,
        core_id: int,
        memory: Component,
        io_port: Optional[Component] = None,
        flush_threshold_cycles: int = 100,
        telemetry=None,
    ):
        super().__init__(engine, f"core{core_id}", clock)
        self.core_id = core_id
        self.memory = memory
        self.io_port = io_port
        self.telemetry = telemetry
        if self.telemetry is not None:
            reg = self.telemetry.registry
            reg.gauge_fn(f"cpu.{self.name}.busy_ps", lambda: self.busy_ps)
            reg.gauge_fn(
                f"cpu.{self.name}.memory_accesses", lambda: self.memory_accesses
            )
        self.tag = TagRegister(f"core{core_id}", on_change=self._retag)
        # The register's value, read per access without the property
        # frame; TagRegister.write stays the only (validated) writer.
        self._ds_id = self.tag.ds_id
        self._period_ps = clock.period_ps
        self.flush_threshold_ps = flush_threshold_cycles * clock.period_ps
        self.state = CoreState.IDLE
        self.busy_ps = 0
        self.memory_accesses = 0
        self._ops = None
        self._workload = None
        self._carry_ps = 0
        self._outstanding = 0
        self._wake_pending = False
        self._started_at_ps = 0
        # Bound once: every memory access hands it down as its callback.
        self._respond = self._on_response

    def _retag(self, _old: int, new: int) -> None:
        self._ds_id = new

    # -- workload control --------------------------------------------------

    def assign(self, workload) -> None:
        """Start running a workload (an object with ``.ops()``)."""
        if self.state not in (CoreState.IDLE, CoreState.DONE):
            raise RuntimeError(f"{self.name} is already running a workload")
        self._workload = workload
        bind = getattr(workload, "bind", None)
        if bind is not None:
            bind(self)
        self._ops = iter(workload.ops())
        self.state = CoreState.RUNNING
        self._started_at_ps = self.now
        self.post(0, self._step)

    def wake(self) -> None:
        """Unblock a core parked on a ``("block",)`` op."""
        if self.state is CoreState.BLOCKED:
            self.state = CoreState.RUNNING
            self.post(0, self._step)
        else:
            self._wake_pending = True

    @property
    def is_busy(self) -> bool:
        return self.state not in (CoreState.IDLE, CoreState.DONE)

    # -- the interpreter loop -------------------------------------------------

    def _step(self) -> None:
        if self.state is not CoreState.RUNNING:
            return
        acc_ps = self._carry_ps
        self._carry_ps = 0
        while True:
            try:
                op = next(self._ops)
            except StopIteration:
                self.busy_ps += acc_ps
                if acc_ps > 0:
                    # Materialize the remaining accumulated time so DONE is
                    # observed at the correct simulated instant.
                    self.engine.post(acc_ps, self._finish)
                else:
                    self.state = CoreState.DONE
                return
            kind = op[0]
            if kind == "compute":
                acc_ps += op[1] * self._period_ps
                if acc_ps >= self.flush_threshold_ps:
                    self.busy_ps += acc_ps
                    self.engine.post(acc_ps, self._step)
                    return
            elif kind == "loads" or kind == "store":
                done = self._issue(op, acc_ps)
                if done is None:
                    return  # waiting for memory
                acc_ps = done
            elif kind == "call":
                op[1]()
            elif kind == "block":
                if self._wake_pending:
                    # acc_ps stays in the accumulator, charged at its flush.
                    self._wake_pending = False
                    continue
                self.busy_ps += acc_ps
                self.state = CoreState.BLOCKED
                return
            elif kind == "io":
                self._issue_io(op[1], acc_ps)
                return
            else:
                raise ValueError(f"unknown core op {kind!r}")

    # -- memory ops --------------------------------------------------------------

    def _issue(self, op, acc_ps: int) -> Optional[int]:
        """Issue a memory op; returns updated acc if every access hit
        synchronously, else None.

        A ``store`` is a batch of one; a ``loads`` batch issues its
        independent accesses together (MLP) and waits for the slowest.
        Each packet is built inline, tagged with the core's DS-id at
        construction: this runs once per memory access.
        """
        kind, target = op
        if kind == "loads":
            addrs, mem_op = target, _READ
        else:
            addrs, mem_op = (target,), _WRITE
        max_sync = 0
        pending = 0
        ds_id = self._ds_id
        now = self.engine._now
        for addr in addrs:
            packet = MemoryPacket(ds_id, addr, now, mem_op)
            if self.telemetry is not None:
                self._start_span(packet)
            self.memory_accesses += 1
            latency = self.memory.access(packet, self._respond)
            if latency is None:
                pending += 1
            else:
                if packet.span is not None:
                    self._finish_span(packet, now + latency)
                if latency > max_sync:
                    max_sync = latency
        if pending == 0:
            return acc_ps + max_sync
        # acc is carried, not consumed: it re-enters the accumulator when
        # the wait ends, so it is charged to busy_ps exactly once.
        self._carry_ps = acc_ps
        self._outstanding = pending
        self.state = CoreState.WAITING_MEM
        return None

    def _start_span(self, packet: MemoryPacket) -> None:
        span = self.telemetry.spans.maybe_start(packet.ds_id, packet.packet_id)
        if span is not None:
            span.hop(f"{self.name}.issue", self.engine._now)
            packet.span = span

    def _finish_span(self, packet, at_ps: int) -> None:
        span = packet.span
        span.hop(f"{self.name}.response", at_ps)
        packet.span = None
        self.telemetry.spans.finish(span)

    def _finish(self) -> None:
        self.state = CoreState.DONE

    def _on_response(self, _packet=None) -> None:
        if _packet is not None and _packet.span is not None:
            self._finish_span(_packet, self.now)
        self._outstanding -= 1
        # The last response of the op resumes the core.
        if self._outstanding == 0 and self.state is CoreState.WAITING_MEM:
            self.state = CoreState.RUNNING
            self._step()

    # -- I/O ops --------------------------------------------------------------------

    def _issue_io(self, packet, acc_ps: int) -> None:
        if self.io_port is None:
            raise RuntimeError(f"{self.name} has no I/O port")
        self._carry_ps = acc_ps
        self.state = CoreState.WAITING_IO
        self.tag.tag(packet)

        def resume(_resp=None):
            if self.state is CoreState.WAITING_IO:
                self.state = CoreState.RUNNING
                self._step()

        self.io_port.handle_request(packet, resume)
