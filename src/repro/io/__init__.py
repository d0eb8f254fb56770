"""I/O substrate with PARD control planes.

- :mod:`repro.io.apic` -- interrupt controller with per-DS-id duplicated
  route tables (§4.1)
- :mod:`repro.io.dma` -- DMA engines whose tag registers are loaded from
  the descriptor write and stamped onto every transfer (§4.1)
- :mod:`repro.io.disk` -- the IDE controller with a bandwidth-quota
  control plane (Fig. 10)
- :mod:`repro.io.bridge` -- the I/O bridge control plane (device access
  masks per DS-id, PIO accounting)
"""

from repro.io.apic import Apic
from repro.io.bridge import IoBridge, IoBridgeControlPlane, IoAccessError
from repro.io.disk import IdeControlPlane, IdeController
from repro.io.dma import DmaEngine

__all__ = [
    "Apic",
    "DmaEngine",
    "IdeControlPlane",
    "IdeController",
    "IoAccessError",
    "IoBridge",
    "IoBridgeControlPlane",
]
