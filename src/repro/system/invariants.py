"""Runtime invariants of an assembled server: what holds between any two
events, and at drain (no event pending) that nothing is left in flight."""

from __future__ import annotations

from repro.cache.mshr import WAY_FREE
from repro.cpu.core import CoreState


def check_invariants(server) -> None:
    """Raise ``RuntimeError`` naming the first invariant ``server`` breaks."""
    caches = [server.llc] + server.l1s
    for cache in caches:
        for set_index, cache_set in cache._sets.items():
            index, free, valid = {}, 0, 0
            for way, key in enumerate(cache_set.keys):
                if key >= 0:
                    index.setdefault(key, way)
                    valid |= 1 << way
                elif key == WAY_FREE:
                    free |= 1 << way
            where = f"{cache.name} set {set_index}"
            if cache_set.index != index or len(index) != valid.bit_count():
                raise RuntimeError(f"{where}: index disagrees with the tag array")
            if cache_set.free != free:
                raise RuntimeError(f"{where}: free mask {cache_set.free:#x}, keys say {free:#x}")
            if cache_set.dirty & ~valid:
                raise RuntimeError(f"{where}: dirty bits {cache_set.dirty:#x} on empty ways")
        if cache.mshrs.occupancy > cache.mshrs.num_entries:
            raise RuntimeError(f"{cache.name}: more MSHR entries than the file holds")
    control, llc = server.llc_control, server.llc
    for ds_id in control.statistics.ds_ids:
        if control.occupancy_bytes(ds_id) != llc.occupancy_blocks(ds_id) * llc.config.line_size:
            raise RuntimeError(f"llc: DS-id {ds_id} occupancy disagrees with the tag array")
    _check_per_dsid_sums(server)
    # Every dispatched DRAM request waits on its bank's FIFO until its
    # completion retires it. At drain both counts must be zero, which
    # the checks below name separately.
    controller = server.memory_controller
    in_service = sum(map(len, controller._in_service))
    if server.engine.pending_events:
        if in_service != controller._inflight:
            raise RuntimeError(
                f"{controller.name}: bank FIFOs hold {in_service} requests, "
                f"{controller._inflight} in flight"
            )
        return
    for cache in caches:
        if cache.mshrs.occupancy:
            raise RuntimeError(f"{cache.name}: MSHR entries left after drain")
        if cache._lookups:
            raise RuntimeError(
                f"{cache.name}: {len(cache._lookups)} lookups queued after drain"
            )
    if controller._inflight:
        raise RuntimeError(f"{controller.name}: DRAM requests in flight after drain")
    if in_service:
        raise RuntimeError(
            f"{controller.name}: {in_service} requests left in bank FIFOs after drain"
        )
    for core in server.cores:
        if core.state is CoreState.WAITING_MEM:
            raise RuntimeError(
                f"{core.name}: still waiting on {core._outstanding} memory "
                "access(es) after drain"
            )


def _check_per_dsid_sums(server) -> None:
    """Per-DS-id statistics sum to the component totals.

    Every LLC lookup is counted into the plane's open window under its
    DS-id, and each window publishes the counts of allocated DS-ids into
    their ``hit_cnt``/``miss_cnt`` cells; likewise every served DRAM
    request into the memory plane's service window and ``serv_cnt``. So
    published plus open-window counts, summed over DS-ids, equal the
    LLC's ``total_hits``/``total_misses`` and the controller's
    ``served_requests``. Destroying an LDom frees its rows, and its
    published counts leave with them: once the firmware has destroyed an
    LDom, the sums may only fall short of the totals, never exceed them.
    """
    firmware = server.firmware
    freed = firmware._next_ds_id - 1 != len(firmware.ldoms)
    llc_control, mem_control = server.llc_control, server.memory_control
    llc_stats, mem_stats = llc_control.statistics, mem_control.statistics
    served = server.memory_controller.served_requests
    for what, counted, total in (
        (
            "llc hits",
            sum(llc_stats.get(d, "hit_cnt") for d in llc_stats.ds_ids)
            + sum(llc_control.window_hits.values()),
            server.llc.total_hits,
        ),
        (
            "llc misses",
            sum(llc_stats.get(d, "miss_cnt") for d in llc_stats.ds_ids)
            + sum(llc_control.window_misses.values()),
            server.llc.total_misses,
        ),
        (
            "dram requests",
            sum(mem_stats.get(d, "serv_cnt") for d in mem_stats.ds_ids)
            + sum(totals[2] for totals in mem_control.window_service.values()),
            served,
        ),
    ):
        if counted > total or (counted != total and not freed):
            raise RuntimeError(
                f"{what}: per-DS-id statistics sum to {counted}, "
                f"the component counted {total}"
            )
