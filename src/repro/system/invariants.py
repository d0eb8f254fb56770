"""Runtime invariants of an assembled server: what holds between any two
events, and at drain (no event pending) that nothing is left in flight."""

from __future__ import annotations


def check_invariants(server) -> None:
    """Raise ``RuntimeError`` naming the first invariant ``server`` breaks."""
    caches = [server.llc] + server.l1s
    for cache in caches:
        for set_index, cache_set in cache._sets.items():
            index, free = {}, 0
            for way, line in enumerate(cache_set.lines):
                if line.valid:
                    index.setdefault(line.tag << 16 | line.ds_id, way)
                elif line.tag == 0:
                    free |= 1 << way
            valid = sum(line.valid for line in cache_set.lines)
            where = f"{cache.name} set {set_index}"
            if cache_set.index != index or len(index) != valid:
                raise RuntimeError(f"{where}: index disagrees with lines")
            if cache_set.free != free:
                raise RuntimeError(f"{where}: free mask {cache_set.free:#x}, lines say {free:#x}")
        if cache.mshrs.occupancy > cache.mshrs.num_entries:
            raise RuntimeError(f"{cache.name}: more MSHR entries than the file holds")
    control, llc = server.llc_control, server.llc
    for ds_id in control.statistics.ds_ids:
        if control.occupancy_bytes(ds_id) != llc.occupancy_blocks(ds_id) * llc.config.line_size:
            raise RuntimeError(f"llc: DS-id {ds_id} occupancy disagrees with the tag array")
    if server.engine.pending_events:
        return
    for cache in caches:
        if cache.mshrs.occupancy:
            raise RuntimeError(f"{cache.name}: MSHR entries left after drain")
    memory = server.memory_controller
    for controller in getattr(memory, "controllers", [memory]):
        if controller._inflight:
            raise RuntimeError(f"{controller.name}: DRAM requests in flight after drain")
