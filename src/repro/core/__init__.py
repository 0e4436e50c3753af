"""SPFresh core: the LIRE protocol and the single-node engine.

Submodules:

- :mod:`repro.core.distances` — squared-L2 kernels.
- :mod:`repro.core.clustering` — SPANN-style balanced clustering.
- :mod:`repro.core.centroid_index` — in-memory exact centroid navigator
  (the paper's SPTAG stand-in).
- :mod:`repro.core.version_map` — 1-byte-per-vector version map with
  tombstone bit and CAS (paper §4.2.1/§4.2.2).
- :mod:`repro.core.lire` — the LIRE planner: every rebalancing decision
  both engines make (paper §3.3, §4.2).
- :mod:`repro.core.spfresh` — the SPFresh engine: Updater, Local
  Rebuilder, Searcher over the Block Controller (paper §4).
- :mod:`repro.core.latency` — the device/CPU latency model that turns
  I/O and scan counts into per-query microseconds.
- :mod:`repro.core.pipeline` — fore/background pipeline and device
  saturation throughput models (Figs. 8 & 12).
"""
