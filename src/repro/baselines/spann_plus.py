"""SPANN+ baseline: append-only in-place updates (paper §5.1).

"A modified version of SPANN which appends updates locally to a posting
*without splitting and reassigning* — an append-only version of SPFresh
without the Local Rebuilder module." Background garbage collection still
prunes stale replicas. Implemented as :class:`SPFreshIndex` with the
rebalancer disabled so every other code path (storage engine, closure
assignment, searcher) is shared, exactly as in the paper's setup: the GC
is the split job with its split step off, queued each time a posting's
length reaches a multiple of the split limit.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.spfresh import SPFreshConfig, SPFreshIndex


def spann_plus_config(config: SPFreshConfig) -> SPFreshConfig:
    """Derive the SPANN+ configuration from an SPFresh one: the Local
    Rebuilder off, which also rules out reassignment and merges."""
    return dataclasses.replace(config, rebalance=False)


def build_spann_plus(vecs: np.ndarray, vids: np.ndarray, config: SPFreshConfig) -> SPFreshIndex:
    """Build the append-only baseline on the same initial balanced index."""
    return SPFreshIndex.build(vecs, vids, spann_plus_config(config))
