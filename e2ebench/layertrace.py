"""Per-layer self time of one simulator run, measured from outside ``repro``.

Nothing in ``repro`` changes. While :meth:`LayerTrace.attached` is open,
the constructors of the classes the experiment drivers build are hooked,
and each new instance gets the public calls between layers wrapped on
the instance itself:

- ``CpuCore.assign``/``wake``, and the workload's ``bind``, op iterator
  and ``("call", fn)`` completions (layer ``workloads``);
- L1 and LLC ``Cache.access``/``handle_request``;
- ``MemoryController.handle_request``;
- every ``on_response`` callback passed across those calls, charged to
  the layer that passed it;
- ``Engine.post``/``post_at``/``schedule_at``, whose callbacks are
  charged to the layer that posted them, and ``Engine.run`` (layer
  ``sim``: its self time is event dispatch);
- the control planes' ``record_*``/``waymask``/``translate``/
  ``priority``/``rowbuf_enabled``/``start_windows`` (layer ``control``),
  and the interrupt line into the firmware plus ``Firmware.sh``/``cat``/
  ``echo``/``ls``/``create_ldom``/``launch_ldom`` (layer ``prm``).

A span's self time is its duration minus the time its child spans cover,
so every host second lands in exactly one layer. The benchmark opens the
outermost span itself (layer ``system``: the driver and its injector).
A call made from inside the layer it enters (an L1 miss calling its own
``handle_request``) is not a boundary and passes straight through.
"""

from __future__ import annotations

import collections
import functools
import time
from contextlib import contextmanager
from typing import Callable

from repro.cache.cache import Cache
from repro.core.control_plane import ControlPlane
from repro.cpu.core import CpuCore
from repro.dram.controller import MemoryController
from repro.prm.firmware import Firmware
from repro.sim.engine import Engine
from repro.sim.packet import MemOp

LAYERS = (
    "sim", "system", "cpu", "cache.l1", "cache.llc", "dram", "control",
    "prm", "workloads",
)

_CONTROL_CALLS = (
    "record_access", "record_fill", "record_eviction", "record_service",
    "waymask", "translate", "priority", "rowbuf_enabled", "start_windows",
)
_FIRMWARE_CALLS = ("sh", "cat", "echo", "ls", "create_ldom", "launch_ldom")

_perf_counter = time.perf_counter


class _EngineProbe:
    """What the wrappers saw of one engine."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.posts = 0  # uncancellable schedules (post/post_at)
        self.post_runs = 0
        self.schedules = 0  # cancellable schedules (schedule_at)
        self.schedule_runs = 0
        self.timestamps = 0  # distinct timestamps dispatched
        self.last_now = -1

    @property
    def executed(self) -> int:
        return self.post_runs + self.schedule_runs

    @property
    def cancelled(self) -> int:
        # Live queued events split into posts (never cancelled) and
        # schedules; whatever schedule neither ran nor is queued was
        # cancelled.
        queued_posts = self.posts - self.post_runs
        queued_schedules = self.engine.pending_events - queued_posts
        return self.schedules - self.schedule_runs - queued_schedules


class _TracedOps:
    """A workload's op iterator whose every step is a ``workloads`` span."""

    __slots__ = ("_trace", "_next")

    def __init__(self, trace: "LayerTrace", ops):
        self._trace = trace
        self._next = iter(ops).__next__

    def __iter__(self):
        return self

    def __next__(self):
        trace = self._trace
        op = trace.span("workloads", self._next)
        if op[0] == "call":
            return ("call", trace.callback("workloads", op[1], "cpu"))
        return op


class LayerTrace:
    """Span accounting for one traced run (see the module docstring)."""

    def __init__(self) -> None:
        self.layer: str | None = None  # layer of the innermost open span
        self._child_s = 0.0  # child time of the innermost open span
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        # (caller layer, callee layer, method) -> boundary crossings.
        self.calls: collections.Counter = collections.Counter()
        # Same key -> calls that completed synchronously (returned a value).
        self.sync: collections.Counter = collections.Counter()
        # Same key -> requests that were writebacks.
        self.writebacks: collections.Counter = collections.Counter()
        # (layer run, layer that invoked it) -> callbacks run.
        self.callbacks: collections.Counter = collections.Counter()
        # Poster layer -> cancellable schedules (``schedule_at``).
        self.scheduled: collections.Counter = collections.Counter()
        self.engines: list[_EngineProbe] = []
        self.cores: list = []
        self.l1s: list = []
        self.llcs: list = []
        self.controllers: list = []
        self.planes: list = []
        self.workloads: list = []
        self._seen: set[int] = set()

    # -- spans ---------------------------------------------------------------

    def span(self, layer: str, fn: Callable, *args):
        """Run ``fn(*args)`` as a span of ``layer``."""
        parent, parent_child_s = self.layer, self._child_s
        self.layer, self._child_s = layer, 0.0
        start = _perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = _perf_counter() - start
            self.self_s[layer] += elapsed - self._child_s
            self.layer, self._child_s = parent, parent_child_s + elapsed

    def callback(self, layer: str, fn: Callable, invoker: str) -> Callable:
        """``fn`` as a callback of ``layer`` that ``invoker`` will run."""
        key = (layer, invoker)

        def traced_callback(*args):
            self.callbacks[key] += 1
            return self.span(layer, fn, *args)

        return traced_callback

    # -- boundary wrappers -----------------------------------------------------

    def _wrap_call(self, obj, name: str, layer: str) -> None:
        inner = getattr(obj, name)

        def traced_call(*args, **kwargs):
            caller = self.layer
            if caller == layer:
                return inner(*args, **kwargs)
            self.calls[(caller, layer, name)] += 1
            fn = functools.partial(inner, **kwargs) if kwargs else inner
            return self.span(layer, fn, *args)

        setattr(obj, name, traced_call)

    def _wrap_request(self, obj, name: str, layer: str) -> None:
        inner = getattr(obj, name)

        def traced_request(packet, on_response):
            caller = self.layer
            if caller == layer:
                return inner(packet, on_response)
            key = (caller, layer, name)
            self.calls[key] += 1
            if packet.op is MemOp.WRITEBACK:
                self.writebacks[key] += 1
            result = self.span(
                layer, inner, packet, self.callback(caller, on_response, layer)
            )
            if result is not None:
                self.sync[key] += 1
            return result

        setattr(obj, name, traced_request)

    # -- per-class attachment ------------------------------------------------------

    def _attach_engine(self, engine: Engine) -> None:
        probe = _EngineProbe(engine)
        self.engines.append(probe)
        raw_post, raw_post_at = engine.post, engine.post_at
        raw_schedule_at, raw_run = engine.schedule_at, engine.run
        span = self.span

        def event(layer: str, fn: Callable, cancellable: bool) -> Callable:
            def traced_event():
                now = engine.now
                if now != probe.last_now:
                    probe.last_now = now
                    probe.timestamps += 1
                if cancellable:
                    probe.schedule_runs += 1
                else:
                    probe.post_runs += 1
                span(layer, fn)

            return traced_event

        def post(delay_ps, callback):
            probe.posts += 1
            raw_post(delay_ps, event(self.layer, callback, False))

        def post_at(time_ps, callback):
            probe.posts += 1
            raw_post_at(time_ps, event(self.layer, callback, False))

        def schedule_at(time_ps, callback):
            probe.schedules += 1
            self.scheduled[self.layer] += 1
            return raw_schedule_at(time_ps, event(self.layer, callback, True))

        def run(until_ps=None):
            return span("sim", raw_run, until_ps)

        engine.post, engine.post_at = post, post_at
        engine.schedule_at, engine.run = schedule_at, run

    def _attach_core(self, core: CpuCore) -> None:
        self.cores.append(core)
        assign = core.assign

        def assign_traced(workload):
            self._attach_workload(workload)
            return assign(workload)

        core.assign = assign_traced
        self._wrap_call(core, "assign", "cpu")
        self._wrap_call(core, "wake", "cpu")

    def _attach_workload(self, workload) -> None:
        if id(workload) in self._seen:
            return
        self._seen.add(id(workload))
        self.workloads.append(workload)
        self._wrap_call(workload, "bind", "workloads")
        ops = workload.ops
        workload.ops = lambda: _TracedOps(self, ops())

    def _attach_cache(self, cache: Cache) -> None:
        # The LLC is the cache built with a control plane (repro.cache.cache).
        if cache.control is not None:
            layer = "cache.llc"
            self.llcs.append(cache)
        else:
            layer = "cache.l1"
            self.l1s.append(cache)
        self._wrap_request(cache, "access", layer)
        self._wrap_request(cache, "handle_request", layer)

    def _attach_controller(self, controller: MemoryController) -> None:
        # Component.access forwards to handle_request, so this one wrapper
        # sees fills and writebacks alike.
        self.controllers.append(controller)
        self._wrap_request(controller, "handle_request", "dram")

    def _attach_plane(self, plane: ControlPlane) -> None:
        self.planes.append(plane)
        for name in _CONTROL_CALLS:
            if hasattr(plane, name):
                self._wrap_call(plane, name, "control")
        attach_interrupt = plane.attach_interrupt
        plane.attach_interrupt = lambda fn: attach_interrupt(
            self.callback("prm", fn, "control")
        )

    def _attach_firmware(self, firmware: Firmware) -> None:
        for name in _FIRMWARE_CALLS:
            self._wrap_call(firmware, name, "prm")

    @contextmanager
    def attached(self):
        """Trace every instance of the hooked classes built inside the block."""
        hooks = (
            (Engine, self._attach_engine),
            (ControlPlane, self._attach_plane),
            (MemoryController, self._attach_controller),
            (Cache, self._attach_cache),
            (CpuCore, self._attach_core),
            (Firmware, self._attach_firmware),
        )
        originals = [(cls, cls.__dict__["__init__"]) for cls, _ in hooks]
        try:
            for (cls, attach), (_, original) in zip(hooks, originals):
                cls.__init__ = self._hooked_init(original, attach)
            yield self
        finally:
            for cls, original in originals:
                cls.__init__ = original

    def _hooked_init(self, original: Callable, attach: Callable) -> Callable:
        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            # A subclass chaining to a hooked base attaches once.
            if id(obj) not in self._seen:
                self._seen.add(id(obj))
                attach(obj)

        return __init__

    # -- results ----------------------------------------------------------------------

    def _crossings(self, caller: str | None, callee: str, table=None) -> int:
        table = self.calls if table is None else table
        return sum(
            n for (src, dst, _name), n in table.items()
            if dst == callee and (caller is None or src == caller)
        )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced run, by their BENCHMARK.json name."""
        m = {f"{layer}.self_s": s for layer, s in self.self_s.items()}
        events = sum(p.executed for p in self.engines)
        timestamps = sum(p.timestamps for p in self.engines)
        scheduled = sum(p.posts + p.schedules for p in self.engines)
        m["sim.events"] = events
        m["sim.timestamps"] = timestamps
        m["sim.bucket_occupancy"] = _ratio(events, timestamps)
        m["sim.cancelled_frac"] = _ratio(
            sum(p.cancelled for p in self.engines), scheduled
        )
        accesses = self._crossings("cpu", "cache.l1")
        m["cpu.mem_accesses"] = accesses
        m["cpu.sync_hit_frac"] = _ratio(
            self._crossings("cpu", "cache.l1", self.sync), accesses
        )
        for layer, caches in (("cache.l1", self.l1s), ("cache.llc", self.llcs)):
            hits = sum(c.total_hits for c in caches)
            lookups = hits + sum(c.total_misses for c in caches)
            m[f"{layer}.accesses"] = lookups
            m[f"{layer}.hit_frac"] = _ratio(hits, lookups)
        primary = sum(c.mshrs.primary_misses for c in self.llcs)
        secondary = sum(c.mshrs.secondary_misses for c in self.llcs)
        m["cache.llc.mshr_merge_frac"] = _ratio(secondary, primary + secondary)
        m["cache.llc.writebacks"] = self._crossings(
            "cache.llc", "dram", self.writebacks
        )
        m["dram.requests"] = self._crossings(None, "dram")
        m["dram.wakeups"] = self.scheduled["dram"]
        recorders = [r for c in self.controllers for r in c.queue_delay]
        m["dram.qdelay_cycles"] = _ratio(
            sum(r.total for r in recorders), sum(r.count for r in recorders)
        )
        m["control.calls"] = self._crossings(None, "control")
        m["prm.triggers_fired"] = self.callbacks[("prm", "control")]
        served = [w for w in self.workloads if hasattr(w, "requests_served")]
        m["workloads.requests_served"] = sum(w.requests_served for w in served)
        m["workloads.dropped_frac"] = _ratio(
            sum(w.requests_dropped for w in served),
            sum(w.requests_arrived for w in served),
        )
        return m

    def count_mismatches(self) -> list[str]:
        """Where a wrapper count disagrees with the component's own counter.

        Each pair counts the same thing at the same boundary, so any
        difference means a crossing the wrappers did not see.
        """
        problems = []

        def expect(what: str, traced: int, own: int) -> None:
            if traced != own:
                problems.append(
                    f"{what}: wrappers saw {traced}, components report {own}"
                )

        for probe in self.engines:
            expect("events run", probe.executed, probe.engine.executed_total)
        expect(
            "core memory accesses into L1",
            self._crossings("cpu", "cache.l1"),
            sum(c.memory_accesses for c in self.cores),
        )
        expect(
            "L1 fills requested from the LLC",
            self.calls[("cache.l1", "cache.llc", "access")],
            sum(c.mshrs.primary_misses for c in self.l1s),
        )
        expect(
            "LLC fills requested from DRAM",
            self._crossings("cache.llc", "dram")
            - self._crossings("cache.llc", "dram", self.writebacks),
            sum(c.mshrs.primary_misses for c in self.llcs),
        )
        expect(
            "DRAM responses",
            sum(n for (_, invoker), n in self.callbacks.items() if invoker == "dram"),
            sum(c.served_requests for c in self.controllers),
        )
        expect(
            "trigger interrupts",
            self.callbacks[("prm", "control")],
            sum(p.interrupts_raised for p in self.planes),
        )
        expect(
            "requests completed",
            self.callbacks[("workloads", "cpu")],
            sum(getattr(w, "requests_served", 0) for w in self.workloads),
        )
        sync_hits = self._crossings("cpu", "cache.l1", self.sync)
        l1_hits = sum(c.total_hits for c in self.l1s)
        if sync_hits > l1_hits:
            problems.append(
                f"synchronous L1 hits: wrappers saw {sync_hits}, "
                f"more than the L1s' {l1_hits} hits"
            )
        return problems


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
