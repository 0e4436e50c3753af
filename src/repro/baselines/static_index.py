"""Static baseline and global-rebuild cost probe (paper §2.3, Table 1, Fig. 10).

``static_rebuild`` builds a fresh balanced index over the *current live*
vector set — the paper's "Static" ideal (no update history) and the
operation whose resource cost Table 1 quantifies. ``RebuildCost``
captures the modelled resources of one global rebuild so Table 1 can
contrast them with LIRE's incremental cost: peak memory (all vectors +
clustering working set resident) and CPU-time (hierarchical balanced
clustering touches every vector O(log(n/leaf)) times).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.spfresh import SPFreshConfig, SPFreshIndex


@dataclass
class RebuildCost:
    """Resource bill of one global rebuild."""

    n_vectors: int
    wall_seconds: float  # measured build wall-clock at repro scale
    peak_memory_bytes: int  # modelled: raw vectors + clustering working set
    cpu_vector_passes: int  # modelled: vectors touched by clustering


def static_rebuild(
    vecs: np.ndarray, vids: np.ndarray, config: SPFreshConfig
) -> tuple[SPFreshIndex, RebuildCost]:
    """Globally rebuild a balanced index; returns (index, resource bill)."""
    t0 = time.perf_counter()
    index = SPFreshIndex.build(vecs, vids, config)
    wall = time.perf_counter() - t0
    n, dim = vecs.shape
    leaf = max(2, int(config.split_limit * 0.6))
    depth = max(1, int(np.ceil(np.log2(max(2, n / leaf)))))
    # Peak DRAM of a global rebuild: one float64 working copy of every
    # raw vector during clustering plus the final index metadata.
    peak_mem = n * dim * 8 + index.memory_bytes()
    return index, RebuildCost(
        n_vectors=n,
        wall_seconds=wall,
        peak_memory_bytes=peak_mem,
        cpu_vector_passes=n * depth,
    )
