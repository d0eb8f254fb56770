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
