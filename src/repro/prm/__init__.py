"""The platform resource manager (PRM) and its Linux-like firmware.

The PRM is the per-computer management SoC of PARD §3 mechanism 3: it
connects every control plane (through control plane adaptors mapped into
a 64 KB I/O window) and every tag register, and runs a firmware that

- abstracts all control planes as a device file tree
  (``/sys/cpa/cpaN/ldoms/ldomK/{parameters,statistics,triggers}``),
- provides a tiny shell (``echo``, ``cat``, ``pardtrigger``) and a file
  API so handler scripts can be written against file primitives only,
- samples statistics files into time series (:class:`StatisticsMonitor`,
  the §7.1.1 tool the figure drivers read through),
- manages LDom lifecycles (create / launch / stop / destroy), and
- dispatches control-plane trigger interrupts to installed
  "trigger => action" handler scripts (§3 mechanism 4).
"""
