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


# Trees up to this many ways get a full-mask victim table (2**8 entries).
VICTIM_TABLE_MAX_WAYS = 8


@lru_cache(maxsize=None)
def plru_tables(
    num_ways: int,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...] | None]:
    """Per-way-count lookup tables, built once and shared by every
    :class:`~repro.cache.cache.Cache` of that many ways, which applies
    touches and picks full-mask victims with them on its per-access path.

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


def masked_victim(state: int, mask: int, leaves: tuple[int, ...], ways: int) -> int:
    """The victim way of a tree PLRU in ``state``, restricted to ``mask``
    (within the ``ways`` low bits); ``leaves`` is ``plru_tables(ways)[2]``.

    Node 1 is the root, node ``n`` has children ``2n`` and ``2n+1``, and
    nodes ``ways .. 2*ways-1`` are the ways. Bit ``n`` of ``state`` is 0
    when node ``n``'s left subtree is colder (the next victim direction).
    """
    if not mask:
        raise ReplacementError("way mask selects no ways")
    node = 1
    while node < ways:
        # Follow the node's bit unless that subtree has no allowed way.
        child = 2 * node + (state >> node & 1)
        if not leaves[child] & mask:
            child ^= 1
        node = child
    return node - ways
