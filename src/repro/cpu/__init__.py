"""CPU substrate: timing cores that execute workload op streams.

Each :class:`~repro.cpu.core.CpuCore` carries a PARD DS-id tag register
(every packet it emits is stamped at the source, §4.1) and executes the
op stream produced by a workload model: compute blocks, tagged memory
accesses routed into its private L1, blocking waits, and callbacks that
let workloads observe simulated time.
"""
