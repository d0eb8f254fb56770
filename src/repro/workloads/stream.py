"""The STREAM bandwidth microbenchmark.

Streams over arrays much larger than the LLC with high memory-level
parallelism and little compute per element -- the canonical cache/memory
bandwidth antagonist the paper co-locates with memcached in §7.1.2.
"""

from __future__ import annotations

from typing import Iterator

from repro.workloads.base import LINE, Workload


class Stream(Workload):
    """Sequential sweeps over a large array, forever (until sim end)."""

    name = "stream"

    def __init__(
        self,
        array_bytes: int = 4 << 20,
        mlp: int = 4,
        compute_cycles_per_batch: int = 40,
        write_fraction: float = 0.25,
        start_delay_cycles: int = 0,
    ):
        super().__init__()
        if array_bytes < LINE * mlp:
            raise ValueError("array too small for the configured MLP")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        self.array_bytes = array_bytes
        self.mlp = mlp
        self.compute_cycles_per_batch = compute_cycles_per_batch
        self.write_fraction = write_fraction
        self.start_delay_cycles = start_delay_cycles
        self.sweeps_completed = 0

    def ops(self) -> Iterator[tuple]:
        if self.start_delay_cycles:
            yield ("compute", self.start_delay_cycles)
        lines = self.array_bytes // LINE
        write_period = int(1 / self.write_fraction) if self.write_fraction else 0
        index = 0
        compute = ("compute", self.compute_cycles_per_batch)
        while True:  # runs until the simulation window closes
            batch = []
            for _ in range(self.mlp):
                batch.append((index % lines) * LINE)
                index += 1
            yield ("loads", batch)
            if write_period and (index // self.mlp) % write_period == 0:
                yield ("store", ((index - 1) % lines) * LINE)
            yield compute
            if index >= lines:
                index = 0
                self.sweeps_completed += 1
