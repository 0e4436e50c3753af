"""In-memory centroid navigator — the paper's SPTAG stand-in.

SPFresh keeps the centroid of every posting in an in-memory SPTAG graph
index for fast candidate-posting identification, updated when splits and
merges change the centroid set. :class:`CentroidIndex` stands in for it
with an exact brute-force top-k over the alive centroids: at reproduction
scale (≤ a few thousand postings) this is both exact and fast (DESIGN.md
§2 substitution). It keeps stable integer posting ids and supports
incremental ``add``/``remove`` and batched search. The alive centroids'
matrix and squared norms are kept between searches and rebuilt after an
``add`` or ``remove``.
"""
from __future__ import annotations

import numpy as np

from repro.core.distances import pairwise_sq_l2, sq_norms, topk_indices, topk_per_row


class CentroidIndex:
    """Exact centroid index with stable ids and a DRAM model."""

    def __init__(self, dim: int, capacity: int = 1024):
        self.dim = dim
        self._vecs = np.zeros((capacity, dim), dtype=np.float64)
        self._alive = np.zeros(capacity, dtype=bool)
        self._n = 0  # high-water mark; ids are never reused
        self._alive_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

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
        self._alive_cache = None
        return pid

    def remove(self, pid: int) -> None:
        if not self._alive[pid]:
            raise KeyError(f"posting {pid} not alive")
        self._alive[pid] = False
        self._alive_cache = None

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

    def _alive_centroids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, centroids, squared norms)`` of the alive postings."""
        if self._alive_cache is None:
            alive = self.alive_ids
            vecs = self._vecs[alive]
            self._alive_cache = alive, vecs, sq_norms(vecs)
        return self._alive_cache

    def search(self, q: np.ndarray, k: int) -> np.ndarray:
        """Top-k alive posting ids by distance to ``q`` (nearest first)."""
        alive, vecs, norms = self._alive_centroids()
        d = pairwise_sq_l2(np.asarray(q)[None, :], vecs, y_norms=norms)[0]
        return alive[topk_indices(d, k)]

    def search_batch(self, qs: np.ndarray, k: int) -> np.ndarray:
        """(m, k) alive posting ids per query row, nearest first; ties go
        to the lower posting id, as in :meth:`search`."""
        alive, vecs, norms = self._alive_centroids()
        d = pairwise_sq_l2(qs, vecs, y_norms=norms)
        _, cols = topk_per_row(d, k)
        return alive[cols].reshape(len(d), min(k, len(alive)))

    def memory_bytes(self) -> int:
        """Modelled DRAM: one float32 vector per ever-created centroid."""
        return self._n * self.dim * 4

