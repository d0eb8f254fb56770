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
