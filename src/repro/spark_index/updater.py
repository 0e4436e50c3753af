"""Foreground updater jobs for the Spark SPFresh index (paper §4.1).

``insert_batch`` is the distributed twin of the Updater: assign each new
vector to its closure of nearest postings (the LIRE planner's closure
assignment over the driver's centroid index), append it to those postings
and make the Local Rebuilder's split-trigger call, vector by vector in
arrival order as the core engine does; the batch's rows are then written
as one Parquet append — no existing file is rewritten, matching the Block
Controller's append-only posting updates. ``delete_batch`` is in-memory
tombstoning only, exactly as in the paper (actual row removal happens at
the next compaction).
"""
from __future__ import annotations

import numpy as np

from repro.blockstore.controller import Posting
from repro.core import lire
from repro.spark_index.store import SparkPostingStore


def insert_batch(store: SparkPostingStore, vids: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Insert a batch of vectors; returns the primary pid per vector.

    Raises ``ValueError``, registering none of the batch, when a vid is
    already registered or occurs twice in the batch (``VersionMap.add_many``).
    """
    vids = np.asarray(vids, dtype=np.int64)
    vecs = np.asarray(vecs, dtype=np.float64)
    rows, pids = lire.closure_pids(store.centroid_index, vecs, store.config)
    store.version_map.add_many(vids)
    bounds = np.searchsorted(rows, np.arange(len(vids) + 1))
    for i in range(len(vids)):
        tail = Posting(vids[i : i + 1], np.zeros(1, dtype=np.int16), vecs[i : i + 1])
        closure = pids[bounds[i] : bounds[i + 1]].tolist()
        for pid in closure:
            store.append(pid, tail)
        store.rebuilder.inserted(closure)
    store.flush()
    return pids[bounds[:-1]]


def delete_batch(store: SparkPostingStore, vids: np.ndarray) -> None:
    """Tombstone a batch of vectors in the driver version map."""
    for v in vids:
        store.version_map.delete(int(v))
    store.stats.deletes += len(vids)
