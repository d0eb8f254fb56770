"""Per-LDom address mapping.

Each LDom sees a physical address space starting at 0 so it can run an
unmodified OS; the memory control plane's parameter table stores the
mapping that translates an LDom-physical address into a DRAM address
(PARD §4.2, Fig. 5). The mapping is a contiguous base+bound window here,
matching the paper's single AddrMap column per DS-id.
"""

from __future__ import annotations

from dataclasses import dataclass


class AddressTranslationError(Exception):
    """An LDom-physical address fell outside its DRAM window."""


@dataclass(frozen=True)
class AddressMapping:
    """A base+bound window mapping LDom-physical to DRAM addresses."""

    base: int
    size: int

    def __post_init__(self) -> None:
        if self.base < 0 or self.size <= 0:
            raise ValueError(f"invalid mapping base={self.base} size={self.size}")

    @property
    def limit(self) -> int:
        """One past the highest DRAM address of the window."""
        return self.base + self.size

    def translate(self, ldom_addr: int) -> int:
        """LDom-physical -> DRAM address, bounds-checked."""
        if not 0 <= ldom_addr < self.size:
            raise AddressTranslationError(
                f"LDom address {ldom_addr:#x} outside window of size {self.size:#x}"
            )
        return self.base + ldom_addr

    def overlaps(self, other: "AddressMapping") -> bool:
        return self.base < other.limit and other.base < self.limit
