"""Way-partitioning-enabled tree pseudo-LRU (PARD Fig. 4).

The LLC control plane hands the replacement logic a per-DS-id way mask
from its parameter table; the PLRU tree then only ever selects victims
among the allowed ways. Masks restrict *allocation*, not lookup: a block
that hits in a way outside the requester's current mask is still a hit,
which is what makes mask reprogramming safe at any time (occupancy then
drifts toward the new partition as allocations happen).
"""

from __future__ import annotations

from functools import lru_cache


class ReplacementError(RuntimeError):
    """Raised when no way is eligible for replacement (empty mask)."""


def mask_ways(mask: int, num_ways: int) -> list[int]:
    """The way indices enabled by ``mask`` (bit i = way i)."""
    return [w for w in range(num_ways) if mask & (1 << w)]


# Trees up to this many ways get a full-mask victim table (2**8 entries).
VICTIM_TABLE_MAX_WAYS = 8


@lru_cache(maxsize=None)
def plru_tables(
    num_ways: int,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...] | None]:
    """Per-way-count lookup tables, built once and shared by every tree
    (and by :class:`~repro.cache.cache.Cache`, which applies touches and
    picks full-mask victims itself on its per-access path).

    ``keep[way]`` and ``point[way]`` turn a touch into one expression,
    ``state & keep[way] | point[way]``: ``keep`` clears the bits of the
    nodes on the way's root path and ``point`` sets those that must now
    point right (away from a left child). ``leaves[node]`` is the mask of
    the ways under tree node ``node``. ``victims[state]`` is the victim
    of a tree in ``state`` under the full way mask, for trees of at most
    :data:`VICTIM_TABLE_MAX_WAYS` ways; it is ``None`` for wider trees.
    """
    keep, point = [], []
    for way in range(num_ways):
        path = point_bits = 0
        node = num_ways + way
        while node > 1:
            parent = node >> 1
            path |= 1 << parent
            if not node & 1:
                point_bits |= 1 << parent
            node = parent
        keep.append(~path)
        point.append(point_bits)
    leaves = [0] * (2 * num_ways)
    for way in range(num_ways):
        node = num_ways + way
        while node:
            leaves[node] |= 1 << way
            node >>= 1
    victims = None
    if num_ways <= VICTIM_TABLE_MAX_WAYS:
        # Under the full mask every subtree has an allowed way, so the
        # walk just follows each node's bit (bit 0 is not a node).
        victims = []
        for state in range(1 << num_ways):
            node = 1
            while node < num_ways:
                node = 2 * node + (state >> node & 1)
            victims.append(node - num_ways)
        victims = tuple(victims)
    return tuple(keep), tuple(point), tuple(leaves), victims


class WayMaskedPlru:
    """A binary tree PLRU over a power-of-two number of ways.

    Tree nodes are numbered heap-style: node 1 is the root, node ``n``
    has children ``2n`` and ``2n+1``; nodes ``num_ways .. 2*num_ways-1``
    are the leaves (ways). Bit ``n`` of :attr:`state` belongs to internal
    node ``n``: 0 means the left subtree is colder (next victim
    direction); touching a way flips the bits on its path to point away
    from it.
    """

    __slots__ = ("num_ways", "full_mask", "state", "_keep", "_point", "_leaves")

    def __init__(self, num_ways: int):
        if num_ways < 1 or num_ways & (num_ways - 1):
            raise ValueError(f"num_ways must be a power of two, got {num_ways}")
        self.num_ways = num_ways
        self.full_mask = (1 << num_ways) - 1
        self.state = 0
        self._keep, self._point, self._leaves, _victims = plru_tables(num_ways)

    @property
    def bits(self) -> list[int]:
        """Per-node bits, indexed by node (index 0 unused), for inspection."""
        return [0] + [(self.state >> node) & 1 for node in range(1, self.num_ways)]

    def touch(self, way: int) -> None:
        """Record an access to ``way``, making it most recently used."""
        if not 0 <= way < self.num_ways:
            raise ValueError(f"way {way} out of range for {self.num_ways} ways")
        self.state = self.state & self._keep[way] | self._point[way]

    def victim(self, mask: int | None = None) -> int:
        """Choose the victim way, restricted to ``mask`` (default: all)."""
        if mask is None:
            mask = self.full_mask
        mask &= self.full_mask
        if mask == 0:
            raise ReplacementError("way mask selects no ways")
        state, leaves, num_ways = self.state, self._leaves, self.num_ways
        node = 1
        while node < num_ways:
            # Follow the node's bit unless that subtree has no allowed way.
            child = 2 * node + (state >> node & 1)
            if not leaves[child] & mask:
                child ^= 1
            node = child
        return node - num_ways
