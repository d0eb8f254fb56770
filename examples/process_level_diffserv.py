"""Open problem §10: process-level DiffServ inside one LDom.

The paper asks "how to make OS directly run on PARD server to support
process-level DiffServ?" The hardware hook is already there -- the
per-core DS-id tag register -- so an OS scheduler only has to rewrite it
at context-switch time. This example models that: two "processes" share
one core under a time-slicing scheduler that retags each slice, the LLC
control plane partitions between them, and the firmware's statistics
monitor (the §7.1.1 tool) watches both processes' cache occupancy from
the PRM.

Run:  python examples/process_level_diffserv.py
"""

from repro.prm.monitor import StatisticsMonitor
from repro.sim.engine import PS_PER_MS
from repro.system.config import TABLE2
from repro.system.server import PardServer
from repro.workloads.multiplex import TimeSliced
from repro.workloads.stream import Stream


def main() -> None:
    server = PardServer(TABLE2.scaled(16))
    firmware = server.firmware

    # One LDom, one core -- but TWO process-level DS-ids. We allocate
    # control-plane rows for the second tag by creating a sibling LDom
    # entry for it (in a full OS port the kernel would own this step).
    host = firmware.create_ldom("host", core_ids=(0,), memory_bytes=32 << 20)
    shadow = firmware.create_ldom("host-proc2", core_ids=(1,), memory_bytes=32 << 20)

    # Partition the LLC *between the two processes*: the latency-
    # sensitive one gets 12 ways, the batch one 4.
    firmware.sh(f"echo 0xFFF0 > /sys/cpa/cpa0/ldoms/ldom{host.ds_id}/parameters/waymask")
    firmware.sh(f"echo 0x000F > /sys/cpa/cpa0/ldoms/ldom{shadow.ds_id}/parameters/waymask")

    # An OS-style scheduler: 10 us slices, retagging at each switch.
    interactive = Stream(array_bytes=64 << 10, compute_cycles_per_batch=200)
    batch = Stream(array_bytes=1 << 20, compute_cycles_per_batch=20)
    scheduler = TimeSliced(
        [(interactive, host.ds_id), (batch, shadow.ds_id)],
        slice_cycles=20_000, switch_overhead_cycles=200,
    )

    monitor = StatisticsMonitor(firmware, period_ps=PS_PER_MS)
    for name, ldom in (("interactive", host), ("batch", shadow)):
        monitor.add_probe(
            f"{name}.capacity",
            f"/sys/cpa/cpa0/ldoms/ldom{ldom.ds_id}/statistics/capacity",
        )

    server.start()
    firmware.launch_ldom("host", {0: scheduler})
    monitor.run(5 * PS_PER_MS)

    print("Two processes, one core, per-process DS-ids:\n")
    print(f"  context switches: {scheduler.context_switches}")
    for name, series in monitor.probes.items():
        print(f"  {name:22s} latest = {series.latest() or 0:7d} bytes "
              f"({len(series.values)} samples by the PRM monitor)")
    interactive_occ = monitor.probes["interactive.capacity"].latest()
    batch_occ = monitor.probes["batch.capacity"].latest()
    print(f"\n  LLC split: interactive {interactive_occ // 1024} KB vs "
          f"batch {batch_occ // 1024} KB")
    print(
        "\nEven though both processes run on the SAME core, their traffic\n"
        "is distinguishable at every shared resource because the scheduler\n"
        "rewrites the core's tag register at each context switch -- the\n"
        "paper's process-level DiffServ open problem, demonstrated."
    )


if __name__ == "__main__":
    main()
