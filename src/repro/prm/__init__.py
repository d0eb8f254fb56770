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

from repro.prm.allocator import OutOfMemoryError, WindowAllocator
from repro.prm.cpa import ControlPlaneAdaptor, PrmIoSpace
from repro.prm.firmware import Firmware, FirmwareError, HardwareInventory
from repro.prm.monitor import StatisticsMonitor
from repro.prm.rules import (
    increase_waymask_action,
    partition_llc_action,
    raise_priority_action,
    update_mask,
)
from repro.prm.sysfs import SysfsError, SysfsTree

__all__ = [
    "ControlPlaneAdaptor",
    "Firmware",
    "FirmwareError",
    "HardwareInventory",
    "OutOfMemoryError",
    "PrmIoSpace",
    "StatisticsMonitor",
    "SysfsError",
    "SysfsTree",
    "WindowAllocator",
    "increase_waymask_action",
    "partition_llc_action",
    "raise_priority_action",
    "update_mask",
]
