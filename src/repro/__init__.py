"""PARD: Programmable Architecture for Resourcing-on-Demand.

A full reproduction of Ma et al., ASPLOS 2015. Import each name
straight from the module that defines it:

>>> from repro.system.config import TABLE2
>>> from repro.system.server import PardServer
>>> server = PardServer(TABLE2.scaled(16))
>>> ldom = server.firmware.create_ldom("web", (0,), 32 << 20)
>>> server.start()

See README.md for a tour, DESIGN.md for the system inventory, and
EXPERIMENTS.md for the reproduced evaluation.
"""
