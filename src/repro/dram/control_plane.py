"""The memory control plane (PARD Fig. 5, Table 3).

Parameter table:  ``addr_base`` / ``addr_size`` -- the LDom-physical ->
                  DRAM address window (what lets LDoms run unmodified
                  OSes from address 0); ``priority`` -- scheduling
                  priority (0 = low, 1 = high); ``rowbuf`` -- whether the
                  DS-id may allocate into the extra high-priority row
                  buffer.
Statistics table: ``bandwidth`` (bytes in the last window), ``avg_qlat``
                  (average queueing delay, hundredths of a memory cycle),
                  ``serv_cnt`` (cumulative served requests).
Trigger table:    e.g. ``avg_qlat > N => raise scheduling priority``.

The bound :class:`~repro.dram.controller.MemoryController` uses the
tables in place: it reads a request's window, priority and ``rowbuf``
from the parameter rows and adds each served request to
:attr:`window_service`. The plane publishes that window at each tick.
"""

from __future__ import annotations

from typing import Optional

from repro.core.address import AddressMapping, AddressTranslationError
from repro.core.control_plane import ControlPlane
from repro.dram.timing import DramGeometry
from repro.sim.engine import Engine, PS_PER_MS

LATENCY_SCALE = 100  # avg_qlat is stored in hundredths of a memory cycle


class MemoryControlPlane(ControlPlane):
    """Programmable control plane for the DRAM memory controller.

    ``capacity_bytes`` is the channel's capacity: no DS-id's window may
    end beyond it.
    """

    IDENT = "MEMORY_CP"
    TYPE_CODE = "M"
    PARAMETER_COLUMNS = (
        ("addr_base", 0),
        ("addr_size", 0),
        ("priority", 0),
        ("rowbuf", 1),
    )
    STATISTICS_COLUMNS = (
        ("bandwidth", 0),
        ("avg_qlat", 0),
        ("serv_cnt", 0),
    )

    def __init__(
        self,
        engine: Engine,
        name: str = "cpa_mem",
        max_entries: int = 256,
        max_triggers: int = 64,
        window_ps: int = PS_PER_MS,
        capacity_bytes: int = DramGeometry.capacity_bytes,
    ):
        super().__init__(
            engine, name,
            max_entries=max_entries, max_triggers=max_triggers,
            window_ps=window_ps,
        )
        self.capacity_bytes = capacity_bytes
        self._parameter_rows = self.parameters.row_view
        # DS-id -> [bytes, queueing-delay sum, requests] of the open
        # window, kept by the controller for every DS-id it serves;
        # on_window publishes and clears the entries of allocated DS-ids.
        self.window_service: dict[int, list] = {}

    # -- policy reads ------------------------------------------------------------

    def translate(self, ds_id: int, ldom_addr: int) -> int:
        """LDom-physical -> DRAM address; identity for unmapped DS-ids.

        A single-channel controller applies in-window addresses in place
        and calls this only for one outside its DS-id's window, which
        raises here.
        """
        rows = self._parameter_rows
        if ds_id not in rows:
            return ldom_addr
        row = rows[ds_id]
        size = row["addr_size"]
        if size == 0:
            return ldom_addr
        base = row["addr_base"]
        if base >= 0 and 0 <= ldom_addr < size:
            return base + ldom_addr
        # Out of range (or a malformed window): AddressMapping raises the
        # same error a full translation would.
        return AddressMapping(base, size).translate(ldom_addr)

    def mapping(self, ds_id: int) -> Optional[AddressMapping]:
        if not self.parameters.has(ds_id):
            return None
        size = self.parameters.get(ds_id, "addr_size")
        if size == 0:
            return None
        return AddressMapping(self.parameters.get(ds_id, "addr_base"), size)

    # -- window publication ---------------------------------------------------------

    def on_window(self) -> None:
        for ds_id in self.statistics.ds_ids:
            bandwidth, delay_sum, served = self.window_service.pop(ds_id, (0, 0.0, 0))
            self.statistics.set(ds_id, "bandwidth", bandwidth)
            if served:
                avg = int(delay_sum / served * LATENCY_SCALE)
                self.statistics.set(ds_id, "avg_qlat", avg)
            self.statistics.add(ds_id, "serv_cnt", served)

    # -- validation hooks --------------------------------------------------------

    def on_parameter_write(self, ds_id: int, column: str, value: int) -> None:
        """Reject an ``addr_base`` or ``addr_size`` write whose resulting
        window ends beyond the channel's capacity or overlaps another
        DS-id's.

        Values arrive through the CPA's 64-bit data register, so
        ``echo -1`` reaches here as 2**64 - 1 and is refused as out of
        range. An out-of-range ``priority`` is left alone: the
        controller clamps it to its priority levels.
        """
        if column == "addr_base":
            base, size = value, self.parameters.get(ds_id, "addr_size")
        elif column == "addr_size":
            base, size = self.parameters.get(ds_id, "addr_base"), value
        else:
            return
        if base + size > self.capacity_bytes:
            raise AddressTranslationError(
                f"DS-id {ds_id} window [{base:#x}, {base + size:#x}) ends "
                f"beyond the DRAM's {self.capacity_bytes:#x} bytes"
            )
        if size:
            window = AddressMapping(base, size)
            for other in self.parameters.ds_ids:
                if other == ds_id:
                    continue
                other_mapping = self.mapping(other)
                if other_mapping is not None and window.overlaps(other_mapping):
                    raise AddressTranslationError(
                        f"DS-id {ds_id} window overlaps DS-id {other}"
                    )
