"""Control plane adaptors and the PRM's I/O window.

The PRM reserves a 64 KB I/O address space; each control plane adaptor
(CPA) occupies one 32-byte block in it (PARD Fig. 6). A CPA is a base
address plus its control plane's :class:`CpaRegisterFile`. The firmware
performs every table access through that register file's
``read_cell``/``write_cell`` -- write the ``addr`` register to select
(DS-id, offset, table), then issue a READ or WRITE command -- so every
management action in this reproduction crosses the same narrow interface
as on the real hardware.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.control_plane import ControlPlane
from repro.core.programming import CPA_SIZE_BYTES, CPA_SPACE_BYTES, CpaRegisterFile


class CpaSpaceError(RuntimeError):
    """The 64 KB CPA window is exhausted or an address is unmapped."""


class ControlPlaneAdaptor:
    """One CPA: a base address plus the control plane's register file."""

    def __init__(self, index: int, control_plane: ControlPlane):
        self.index = index
        self.control_plane = control_plane
        self.base_addr = index * CPA_SIZE_BYTES

    @property
    def name(self) -> str:
        return f"cpa{self.index}"

    @property
    def register_file(self) -> CpaRegisterFile:
        return self.control_plane.register_file


class PrmIoSpace:
    """The PRM's CPA window: allocation plus raw address decoding."""

    def __init__(self, size_bytes: int = CPA_SPACE_BYTES):
        self.size_bytes = size_bytes
        self.capacity = size_bytes // CPA_SIZE_BYTES
        self._adaptors: list[ControlPlaneAdaptor] = []

    def attach(self, control_plane: ControlPlane) -> ControlPlaneAdaptor:
        if len(self._adaptors) >= self.capacity:
            raise CpaSpaceError(
                f"CPA window full ({self.capacity} adaptors of {CPA_SIZE_BYTES} B "
                f"in {self.size_bytes} B)"
            )
        adaptor = ControlPlaneAdaptor(len(self._adaptors), control_plane)
        self._adaptors.append(adaptor)
        return adaptor

    def __iter__(self) -> Iterator[ControlPlaneAdaptor]:
        return iter(self._adaptors)

    def __len__(self) -> int:
        return len(self._adaptors)

    def by_name(self, name: str) -> ControlPlaneAdaptor:
        for adaptor in self._adaptors:
            if adaptor.name == name:
                return adaptor
        raise CpaSpaceError(f"no CPA named {name!r}")

    def find(self, control_plane: ControlPlane) -> Optional[ControlPlaneAdaptor]:
        for adaptor in self._adaptors:
            if adaptor.control_plane is control_plane:
                return adaptor
        return None

    # -- raw bus access (address-decoded MMIO) -----------------------------------

    def mmio_read(self, addr: int) -> int:
        adaptor, reg = self._decode(addr)
        return adaptor.register_file.mmio_read(reg)

    def mmio_write(self, addr: int, value: int) -> None:
        adaptor, reg = self._decode(addr)
        adaptor.register_file.mmio_write(reg, value)

    def _decode(self, addr: int) -> tuple[ControlPlaneAdaptor, int]:
        if not 0 <= addr < self.size_bytes:
            raise CpaSpaceError(f"address {addr:#x} outside the CPA window")
        index, reg = divmod(addr, CPA_SIZE_BYTES)
        if index >= len(self._adaptors):
            raise CpaSpaceError(f"no CPA mapped at {addr:#x}")
        return self._adaptors[index], reg
