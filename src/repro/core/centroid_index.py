"""In-memory centroid navigator — the paper's SPTAG stand-in.

SPFresh keeps the centroid of every posting in an in-memory SPTAG graph
index for fast candidate-posting identification, updated when splits and
merges change the centroid set. :class:`CentroidIndex` stands in for it
with an exact brute-force top-k over the alive centroids: at reproduction
scale (≤ a few thousand postings) this is both exact and fast (DESIGN.md
§2 substitution). It keeps stable integer posting ids and supports
incremental ``add``/``remove`` and batched search.
"""
from __future__ import annotations

import numpy as np

from repro.core.distances import pairwise_sq_l2, topk_indices


class CentroidIndex:
    """Exact centroid index with stable ids and a DRAM model."""

    def __init__(self, dim: int, capacity: int = 1024):
        self.dim = dim
        self._vecs = np.zeros((capacity, dim), dtype=np.float64)
        self._alive = np.zeros(capacity, dtype=bool)
        self._n = 0  # high-water mark; ids are never reused

    # -- maintenance ------------------------------------------------------
    def _grow(self) -> None:
        cap = len(self._vecs)
        self._vecs = np.vstack([self._vecs, np.zeros((cap, self.dim))])
        self._alive = np.concatenate([self._alive, np.zeros(cap, dtype=bool)])

    def add(self, vec: np.ndarray) -> int:
        """Register a new centroid; returns its fresh posting id."""
        if self._n == len(self._vecs):
            self._grow()
        pid = self._n
        self._vecs[pid] = np.asarray(vec, dtype=np.float64)
        self._alive[pid] = True
        self._n += 1
        return pid

    def remove(self, pid: int) -> None:
        if not self._alive[pid]:
            raise KeyError(f"posting {pid} not alive")
        self._alive[pid] = False

    # -- queries ----------------------------------------------------------
    def __len__(self) -> int:
        return int(self._alive.sum())

    def __contains__(self, pid: int) -> bool:
        return 0 <= pid < self._n and bool(self._alive[pid])

    @property
    def alive_ids(self) -> np.ndarray:
        return np.flatnonzero(self._alive)

    def centroid(self, pid: int) -> np.ndarray:
        if not self._alive[pid]:
            raise KeyError(f"posting {pid} not alive")
        return self._vecs[pid]

    def centroids(self, pids: np.ndarray) -> np.ndarray:
        return self._vecs[np.asarray(pids, dtype=np.int64)]

    def search(self, q: np.ndarray, k: int) -> np.ndarray:
        """Top-k alive posting ids by distance to ``q`` (nearest first)."""
        alive = self.alive_ids
        d = pairwise_sq_l2(np.asarray(q)[None, :], self._vecs[alive])[0]
        return alive[topk_indices(d, k)]

    def search_batch(self, qs: np.ndarray, k: int) -> np.ndarray:
        """(m, k) alive posting ids per query row."""
        alive = self.alive_ids
        d = pairwise_sq_l2(qs, self._vecs[alive])
        k = min(k, len(alive))
        out = np.empty((len(qs), k), dtype=np.int64)
        for i in range(len(qs)):
            out[i] = alive[topk_indices(d[i], k)]
        return out

    def memory_bytes(self) -> int:
        """Modelled DRAM: one float32 vector per ever-created centroid."""
        return self._n * self.dim * 4

