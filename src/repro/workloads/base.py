"""The workload protocol and combinators.

A workload is an object with an ``ops()`` generator producing the op
tuples understood by :class:`repro.cpu.core.CpuCore`. Workloads address
*LDom-physical* memory: their addresses start at 0 and the memory control
plane relocates them, which is exactly how a guest OS runs unmodified
inside an LDom.
"""

from __future__ import annotations

from typing import Iterable, Iterator

LINE = 64


class Workload:
    """Base class; subclasses implement :meth:`ops`."""

    name = "workload"

    def __init__(self):
        self.core = None

    def bind(self, core) -> None:
        """Called by the core when the workload is assigned, and with
        ``None`` when the core halts."""
        self.core = core
        self.on_bind()

    def on_bind(self) -> None:
        """Subclass hook run by every :meth:`bind`."""


class Sequence(Workload):
    """Run workloads one after another (e.g. boot phase, then app)."""

    name = "sequence"

    def __init__(self, stages: Iterable[Workload]):
        super().__init__()
        self.stages = list(stages)
        if not self.stages:
            raise ValueError("a Sequence needs at least one stage")

    def bind(self, core) -> None:
        super().bind(core)
        for stage in self.stages:
            stage.bind(core)

    def ops(self) -> Iterator[tuple]:
        for stage in self.stages:
            yield from stage.ops()


class Boot(Workload):
    """A coarse OS-boot model: touch memory sequentially while computing.

    Fig. 7's timeline shows each LDom booting Linux (visible as a burst
    of memory traffic) before its application starts; this reproduces
    that phase's traffic without simulating a kernel.
    """

    name = "boot"
    # Each line costs this much compute; every STORE_EVERY-th line is a
    # store, and the loads between stores go out in batches of MLP.
    COMPUTE_CYCLES_PER_LINE = 40
    MLP = 4
    STORE_EVERY = 4

    def __init__(self, footprint_bytes: int = 1 << 20):
        super().__init__()
        if footprint_bytes < LINE:
            raise ValueError("boot footprint smaller than one cache line")
        self.footprint_bytes = footprint_bytes

    def ops(self) -> Iterator[tuple]:
        lines = self.footprint_bytes // LINE
        batch: list[int] = []
        for i in range(lines):
            addr = i * LINE
            if i % self.STORE_EVERY == 0:
                if batch:
                    yield ("loads", batch)
                    batch = []
                yield ("store", addr)
            else:
                batch.append(addr)
                if len(batch) >= self.MLP:
                    yield ("loads", batch)
                    batch = []
            yield ("compute", self.COMPUTE_CYCLES_PER_LINE)
        if batch:
            yield ("loads", batch)
