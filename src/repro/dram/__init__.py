"""DRAM substrate: a DDR3-timing memory controller with a PARD control plane.

- :mod:`repro.dram.timing` -- DDR3-1600 timing/geometry (Table 2)
- :mod:`repro.dram.bank` -- bank state, including the paper's extra
  high-priority row buffer (§4.2)
- :mod:`repro.dram.controller` -- the memory controller component
- :mod:`repro.dram.control_plane` -- the memory control plane (address
  mapping, scheduling priority, bandwidth/latency statistics, triggers)
"""
