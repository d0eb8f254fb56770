"""The firmware's physical-memory window allocator.

LDoms receive contiguous base+bound DRAM windows (the memory control
plane's AddrMap is a single base/size pair per DS-id, §4.2), so the
firmware needs a contiguous allocator: first-fit with free-block
coalescing. Windows are aligned to a 1 MiB grain so row/bank interleave
patterns start identically for every LDom.
"""

from __future__ import annotations

from dataclasses import dataclass


WINDOW_ALIGN = 1 << 20


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

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self._free: list[_FreeBlock] = [_FreeBlock(0, capacity_bytes)]
        self._allocated: dict[int, int] = {}  # base -> size

    @property
    def free_bytes(self) -> int:
        return sum(block.size for block in self._free)

    def allocate(self, size_bytes: int) -> int:
        """Allocate an aligned window; returns its base address."""
        if size_bytes <= 0:
            raise ValueError("size must be positive")
        size = (size_bytes + WINDOW_ALIGN - 1) & ~(WINDOW_ALIGN - 1)
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
