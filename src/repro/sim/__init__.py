"""Discrete-event simulation kernel for the PARD intra-computer network.

This package provides the substrate every hardware model in the
reproduction is built on:

- :mod:`repro.sim.engine` -- the event loop (integer picosecond time base)
- :mod:`repro.sim.clock` -- clock domains (CPU at 2 GHz, DDR3-1600 at 800 MHz)
- :mod:`repro.sim.component` -- base class and port plumbing for hardware models
- :mod:`repro.sim.packet` -- tagged intra-computer-network (ICN) packets
- :mod:`repro.sim.stats` -- latency recorders
- :mod:`repro.sim.rng` -- deterministic random streams
"""

from repro.sim.clock import ClockDomain, CPU_CLOCK_PS, DRAM_CLOCK_PS
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.sim.packet import (
    DEFAULT_DSID,
    InterruptPacket,
    IoPacket,
    MemoryPacket,
    Packet,
)
from repro.sim.rng import DeterministicRng
from repro.sim.stats import LatencyRecorder

__all__ = [
    "ClockDomain",
    "Component",
    "CPU_CLOCK_PS",
    "DRAM_CLOCK_PS",
    "DEFAULT_DSID",
    "DeterministicRng",
    "Engine",
    "InterruptPacket",
    "IoPacket",
    "LatencyRecorder",
    "MemoryPacket",
    "Packet",
]
