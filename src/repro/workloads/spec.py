"""Synthetic SPEC CPU2006 memory-behaviour models.

The paper runs 437.leslie3d and 470.lbm in LDoms (Fig. 7). We cannot run
SPEC binaries inside a Python architecture simulator, so each benchmark
is modeled by its published memory characteristics: working-set size,
memory intensity (loads per 1000 compute cycles), write share, and the
fraction of accesses with short-term reuse. What the experiments need
from these workloads is their LLC occupancy and memory bandwidth
footprint, which these parameters determine.
"""

from __future__ import annotations

from typing import Iterator

from repro.sim.rng import DeterministicRng
from repro.workloads.base import LINE, Workload


class SyntheticSpec(Workload):
    """A parameterized compute/memory mixture.

    Each iteration executes a compute block, then a batch of accesses:
    with probability ``locality`` the batch re-reads the hot subset
    (cache-friendly), otherwise it advances a streaming sweep through the
    full working set.
    """

    name = "spec"

    def __init__(
        self,
        benchmark: str,
        working_set_bytes: int,
        compute_cycles_per_batch: int,
        mlp: int = 4,
        locality: float = 0.5,
        hot_fraction: float = 0.1,
        write_fraction: float = 0.2,
        rng: DeterministicRng | None = None,
    ):
        super().__init__()
        self.rng = rng or DeterministicRng(17, name=benchmark)
        if working_set_bytes < LINE * mlp:
            raise ValueError("working set too small")
        if not 0.0 <= locality <= 1.0 or not 0.0 < hot_fraction <= 1.0:
            raise ValueError("locality/hot_fraction must be fractions")
        self.name = benchmark
        self.working_set_bytes = working_set_bytes
        self.compute_cycles_per_batch = compute_cycles_per_batch
        self.mlp = mlp
        self.locality = locality
        self.hot_fraction = hot_fraction
        self.write_fraction = write_fraction

    def ops(self) -> Iterator[tuple]:
        lines = self.working_set_bytes // LINE
        hot_lines = max(self.mlp, int(lines * self.hot_fraction))
        sweep = 0
        while True:
            yield ("compute", self.compute_cycles_per_batch)
            if self.rng.random() < self.locality:
                base = self.rng.randint(0, hot_lines - self.mlp)
                batch = [(base + i) * LINE for i in range(self.mlp)]
            else:
                batch = [((sweep + i) % lines) * LINE for i in range(self.mlp)]
                sweep += self.mlp
            yield ("loads", batch)
            if self.rng.random() < self.write_fraction:
                yield ("store", batch[-1])


def leslie3d(scale: float = 1.0) -> SyntheticSpec:
    """437.leslie3d: moderate working set, mixed reuse, steady bandwidth."""
    return SyntheticSpec(
        benchmark="437.leslie3d",
        working_set_bytes=int((2 << 20) * scale),
        compute_cycles_per_batch=60,
        mlp=4,
        locality=0.55,
        hot_fraction=0.15,
        write_fraction=0.25,
    )


def lbm(scale: float = 1.0) -> SyntheticSpec:
    """470.lbm: streaming-dominated, large footprint, write-heavy."""
    return SyntheticSpec(
        benchmark="470.lbm",
        working_set_bytes=int((6 << 20) * scale),
        compute_cycles_per_batch=30,
        mlp=6,
        locality=0.15,
        hot_fraction=0.05,
        write_fraction=0.4,
    )

