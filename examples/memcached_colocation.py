"""Co-locating a latency-critical service with batch work (Figs. 8 & 9).

The data-center scenario the paper opens with: a memcached-style service
owns one core of a four-core server (25% utilization); the operator
wants to sell the other three cores to batch jobs without wrecking the
service's tail latency.

This example runs the three configurations at one load point and prints
the comparison the paper's Fig. 8 makes, then shows the trigger =>
action reaction (Fig. 9's mechanism) in the firmware's own log.

Run:  python examples/memcached_colocation.py
"""

from repro.analysis.tables import format_table
from repro.system.experiments import ColocationSetup, run_colocation_point


def main() -> None:
    setup = ColocationSetup()
    load_rps = 333_000  # ~15 KRPS on the paper's axis

    print("Running three configurations (this takes a minute)...\n")
    rows = []
    for mode, label in (
        ("solo", "memcached alone (3 cores idle)"),
        ("shared", "+3 STREAM LDoms, no policy"),
        ("trigger", "+3 STREAM LDoms, trigger => repartition rule"),
    ):
        result = run_colocation_point(mode, load_rps, setup=setup, measure_ms=2.5)
        rows.append([
            label,
            f"{result.cpu_utilization * 100:.0f}%",
            f"{result.p95_ms * 1000:.0f} us",
            f"{(result.llc_miss_rate or 0) * 100:.1f}%",
            "fired" if result.trigger_fired else "-",
        ])
    print(format_table(
        ["configuration", "CPU util", "p95 latency", "LLC miss rate", "trigger"],
        rows,
    ))

    print("""
Reading the table the way the paper reads Fig. 8:
 - solo: good tail, but the server is 75% idle;
 - shared: 4x the utilization, but cache contention multiplies the tail;
 - trigger: the control plane noticed the miss-rate excursion, the
   firmware dedicated half the LLC to memcached, and the tail returned
   to near-solo -- at 100% CPU utilization.

The rule used (installed exactly like the paper's Fig. 6 example):
  pardtrigger /dev/cpa0 -ldom=1 -action=0 -stats=miss_rate -cond=gt,15
  echo /cpa0_ldom1_t0.sh > /sys/cpa/cpa0/ldoms/ldom1/triggers/0
""")


if __name__ == "__main__":
    main()
