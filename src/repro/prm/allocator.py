"""The firmware's physical-memory window allocator.

LDoms receive contiguous base+bound DRAM windows (the memory control
plane's AddrMap is a single base/size pair per DS-id, §4.2), so the
firmware needs a contiguous allocator: first-fit with free-block
coalescing. Windows are aligned to a large grain so row/bank interleave
patterns start identically for every LDom.
"""

from __future__ import annotations

from dataclasses import dataclass


class OutOfMemoryError(RuntimeError):
    """No contiguous free window large enough."""


@dataclass(frozen=True)
class _FreeBlock:
    base: int
    size: int

    @property
    def limit(self) -> int:
        return self.base + self.size


class WindowAllocator:
    """First-fit contiguous allocator with coalescing."""

    def __init__(self, capacity_bytes: int, reserved_bytes: int = 0, align: int = 1 << 20):
        if capacity_bytes <= reserved_bytes:
            raise ValueError("capacity must exceed the reserved region")
        if align <= 0 or align & (align - 1):
            raise ValueError("alignment must be a power of two")
        self.capacity_bytes = capacity_bytes
        self.align = align
        base = _round_up(reserved_bytes, align)
        self._free: list[_FreeBlock] = [_FreeBlock(base, capacity_bytes - base)]
        self._allocated: dict[int, int] = {}  # base -> size

    @property
    def free_bytes(self) -> int:
        return sum(block.size for block in self._free)

    def allocate(self, size_bytes: int) -> int:
        """Allocate an aligned window; returns its base address."""
        if size_bytes <= 0:
            raise ValueError("size must be positive")
        size = _round_up(size_bytes, self.align)
        for index, block in enumerate(self._free):
            if block.size >= size:
                base = block.base
                remainder = block.size - size
                if remainder:
                    self._free[index] = _FreeBlock(base + size, remainder)
                else:
                    del self._free[index]
                self._allocated[base] = size
                return base
        raise OutOfMemoryError(
            f"no contiguous window of {size} bytes "
            f"({self.free_bytes} free in fragments)"
        )

    def free(self, base: int) -> None:
        """Release a window, coalescing with free neighbours."""
        try:
            size = self._allocated.pop(base)
        except KeyError:
            raise KeyError(f"no allocated window at base {base:#x}")
        self._free.append(_FreeBlock(base, size))
        self._free.sort(key=lambda b: b.base)
        merged: list[_FreeBlock] = []
        for block in self._free:
            if merged and merged[-1].limit == block.base:
                previous = merged.pop()
                merged.append(_FreeBlock(previous.base, previous.size + block.size))
            else:
                merged.append(block)
        self._free = merged


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)
