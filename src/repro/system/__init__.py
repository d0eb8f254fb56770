"""Full-system assembly.

- :mod:`repro.system.config` -- Table 2's simulation parameters, plus a
  uniform scale knob for laptop-speed experiment runs
- :mod:`repro.system.server` -- wires cores, caches, DRAM, I/O, APIC,
  control planes and the PRM firmware into one PARD server
- :mod:`repro.system.experiments` -- drivers that reproduce the paper's
  evaluation scenarios (Figs. 7-11)
- :mod:`repro.system.invariants` -- :func:`check_invariants`, the
  model-state checks tests run after a simulation
"""
