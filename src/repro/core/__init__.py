"""PARD core: the programmable control-plane framework.

This package is the paper's primary contribution, independent of any
particular hardware resource:

- :mod:`repro.core.tables` -- the three DS-id indexed tables every control
  plane carries (parameter, statistics, trigger; PARD Fig. 2)
- :mod:`repro.core.triggers` -- trigger conditions and comparison operators
- :mod:`repro.core.programming` -- the 32-byte CPA register protocol
  (IDENT / IDENT_HIGH / type / addr / cmd / data; PARD Fig. 6)
- :mod:`repro.core.control_plane` -- the base :class:`ControlPlane` that
  component-specific control planes (LLC, memory, I/O) instantiate
- :mod:`repro.core.tagging` -- DS-id tag registers placed at packet sources
- :mod:`repro.core.ldom` -- logical domains (submachines)
- :mod:`repro.core.address` -- per-LDom physical address mapping
"""
