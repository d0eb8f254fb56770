"""The open-loop memcached model.

The paper's §7.1.2 setup: memcached serves an open-loop request stream
(client and server co-located in the LDom); the metric is the
95th-percentile response time versus offered load (Fig. 8) and the LLC
miss-rate timeline (Fig. 9).

The model: requests arrive as a Poisson process at ``rps``; each request
touches a Zipf-popular object in a fixed working set (hash-table reads
dominate memcached's memory behaviour) interleaved with protocol/compute
cycles. Response time = queueing delay in the arrival queue + service
time, where service time is governed by the memory system -- so LLC
contention and memory queueing feed straight into the tail, which is the
paper's causal chain.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.sim.engine import Engine, PS_PER_MS
from repro.sim.rng import DeterministicRng
from repro.sim.stats import LatencyRecorder
from repro.workloads.base import LINE, Workload

# Arrivals beyond this many queued requests are dropped.
MAX_QUEUE = 4096


class MemcachedServer(Workload):
    """A single-core memcached worker with its own open-loop client."""

    name = "memcached"

    def __init__(
        self,
        engine: Engine,
        rps: float,
        working_set_bytes: int = 2 << 20,
        object_lines: int = 4,
        loads_per_request: int = 160,
        mlp: int = 2,
        compute_cycles_per_batch: int = 24,
        zipf_alpha: float = 0.9,
        warmup_ps: int = PS_PER_MS,
        rng: DeterministicRng | None = None,
        telemetry=None,
        ds_id: int = 0,
    ):
        super().__init__()
        self.rng = rng or DeterministicRng(23, name="memcached")
        if rps <= 0:
            raise ValueError("rps must be positive")
        if working_set_bytes < LINE * object_lines:
            raise ValueError("working set too small")
        self.engine = engine
        self.rps = rps
        self.working_set_bytes = working_set_bytes
        self.object_lines = object_lines
        self.loads_per_request = loads_per_request
        self.mlp = mlp
        self.compute_cycles_per_batch = compute_cycles_per_batch
        self.zipf_alpha = zipf_alpha
        self.warmup_ps = warmup_ps
        self.latencies = LatencyRecorder("memcached.response_ms")
        self.queue: deque[int] = deque()
        self.requests_arrived = 0
        self.requests_served = 0
        self.requests_dropped = 0
        self._arrivals_started = False
        self._interarrival_ps = PS_PER_MS * 1000.0 / rps  # mean, in ps
        self.telemetry = telemetry
        if self.telemetry is not None:
            prefix = f"workload.memcached.ds{ds_id}"
            reg = self.telemetry.registry
            reg.gauge_fn(f"{prefix}.arrived", lambda: self.requests_arrived)
            reg.gauge_fn(f"{prefix}.served", lambda: self.requests_served)
            reg.gauge_fn(f"{prefix}.dropped", lambda: self.requests_dropped)
            reg.gauge_fn(f"{prefix}.queue_depth", lambda: len(self.queue))
            # Response time in ms: 1 us .. ~16 ms in log-spaced buckets.
            reg.histogram(
                f"{prefix}.response_ms", (self.latencies,),
                start=0.001, growth=2.0, count=15,
            )

    # -- client (arrival process) ---------------------------------------------

    def on_bind(self) -> None:
        if not self._arrivals_started:
            self._arrivals_started = True
            self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        gap = self.rng.exponential(self._interarrival_ps)
        self.engine.post(max(1, int(gap)), self._arrive)

    def _arrive(self) -> None:
        now = self.engine.now
        self.requests_arrived += 1
        if len(self.queue) >= MAX_QUEUE:
            self.requests_dropped += 1
        else:
            self.queue.append(now)
            if self.core is not None:
                self.core.wake()
        self._schedule_next_arrival()

    # -- server loop --------------------------------------------------------------

    def ops(self) -> Iterator[tuple]:
        object_lines = self.object_lines
        num_objects = self.working_set_bytes // (object_lines * LINE)
        batches = max(1, self.loads_per_request // self.mlp)
        zipf = self.rng.zipf_sampler(num_objects, self.zipf_alpha)
        # randint(0, object_lines - 1), inlined as its _randbelow loop.
        getrandbits = self.rng.getrandbits
        line_bits = object_lines.bit_length()
        while True:
            if not self.queue:
                yield ("block",)
                continue
            arrived_at = self.queue.popleft()
            for _batch in range(batches):
                yield ("compute", self.compute_cycles_per_batch)
                base_line = zipf() * object_lines
                # A plain loop, not a comprehension: no extra frame.
                batch = [0] * self.mlp
                for i in range(self.mlp):
                    line = getrandbits(line_bits)
                    while line >= object_lines:
                        line = getrandbits(line_bits)
                    batch[i] = (base_line + line) * LINE
                yield ("loads", batch)
            yield ("call", self._make_completion(arrived_at))

    def _make_completion(self, arrived_at: int):
        def complete() -> None:
            self.requests_served += 1
            if arrived_at >= self.warmup_ps:
                self.latencies.record((self.engine.now - arrived_at) / PS_PER_MS)
        return complete

    # -- results ---------------------------------------------------------------------

    def p95_ms(self) -> float:
        return self.latencies.p95()

    def mean_ms(self) -> float:
        return self.latencies.mean

    def throughput_rps(self, duration_ps: int) -> float:
        if duration_ps <= 0:
            return 0.0
        return self.requests_served / (duration_ps / (PS_PER_MS * 1000.0))
