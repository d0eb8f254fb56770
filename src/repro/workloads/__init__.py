"""Workload models.

Synthetic but behaviourally faithful versions of the paper's workloads:

- :mod:`repro.workloads.memcached` -- an open-loop latency-critical
  key-value server (Poisson arrivals, Zipfian keys, per-request latency
  recording) standing in for memcached 1.4.17 under CloudSuite load
- :mod:`repro.workloads.stream` -- the STREAM bandwidth microbenchmark
- :mod:`repro.workloads.cacheflush` -- the paper's CacheFlush
  microbenchmark (touches more lines than the LLC holds)
- :mod:`repro.workloads.spec` -- synthetic SPEC CPU2006 memory behaviour
  models (437.leslie3d, 470.lbm)
- :mod:`repro.workloads.diskio` -- ``dd``-style disk writers (DiskCopy)
- :mod:`repro.workloads.base` -- the op-stream protocol and combinators
"""
