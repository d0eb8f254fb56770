"""Cache substrate: set-associative caches with PARD way partitioning.

- :mod:`repro.cache.replacement` -- tree pseudo-LRU with way-mask support
  (the "Way Partitioning Enabled Pseudo-LRU" of PARD Fig. 4)
- :mod:`repro.cache.mshr` -- miss status holding registers; an entry
  also holds the way its fill reserved
- :mod:`repro.cache.cache` -- the cache model itself (used for both the
  private L1s and the shared LLC); a miss runs MSHR merge/allocate and
  victim choice in one frame
- :mod:`repro.cache.control_plane` -- the LLC control plane
"""
