"""Foreground updater jobs for the Spark SPFresh index (paper §4.1).

``insert_batch`` is the distributed twin of the Updater: assign each new
vector to its closure of nearest postings (the LIRE planner's closure
assignment over the driver's centroid index) and *append* the resulting
rows to the Parquet dataset — no existing file is rewritten, matching the
Block Controller's append-only posting updates. ``delete_batch`` is
in-memory tombstoning only, exactly as in the paper (actual row removal
happens at the next compaction / split GC).
"""
from __future__ import annotations

import numpy as np

from repro.core import lire
from repro.spark_index.store import SparkPostingStore, rows_to_pdf


def insert_batch(store: SparkPostingStore, vids: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Insert a batch of vectors; returns the primary pid per vector."""
    vids = np.asarray(vids, dtype=np.int64)
    vecs = np.asarray(vecs, dtype=np.float64)
    rows, pids = lire.closure_pids(store.centroid_index, vecs, store.config)
    for v in vids:
        store.version_map.add(int(v))
    store.append_rows(rows_to_pdf(pids, vids[rows], np.zeros(len(rows)), vecs[rows]))
    return pids[np.searchsorted(rows, np.arange(len(vids)))]


def delete_batch(store: SparkPostingStore, vids: np.ndarray) -> None:
    """Tombstone a batch of vectors in the driver version map."""
    for v in vids:
        store.version_map.delete(int(v))
