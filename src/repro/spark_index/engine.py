"""The Spark SPFresh engine: an ``SPFreshIndex`` over a Parquet posting store.

The Updater, the Local Rebuilder and the Searcher's read step are the core
engine's, run by :class:`~repro.core.spfresh.SPFreshIndex` on the driver
over a :class:`SparkPostingStore`, exactly like the paper's in-memory SPTAG
index, version map and Block Mapping over its disk. This module holds what
is Spark's own:

- :func:`build_index` and :func:`insert_batch`, the core's calls followed
  by one Parquet file of their rows, written with Arrow on the driver;
- the metadata commit (:func:`commit`) and :func:`load_index`;
- :func:`live_rows`, the index's one live filter (``get_batch``, then
  ``SPFreshIndex.live_rows``) over every alive posting, which
  :func:`live_sizes` counts and :func:`compact` writes with Arrow as a new
  dataset generation;
- :func:`rebalance`.

No call here launches a Spark job: maintenance reads and writes Parquet
with Arrow on the driver, and only the search plan (:mod:`search`) runs
on Spark. Deletes are the core's ``SPFreshIndex.delete``: tombstones in
the version map, with no Parquet write (rows go at the next compaction).
"""
from __future__ import annotations

import os
import pickle
import re
import shutil

import numpy as np
from pyspark.sql import SparkSession

from repro.blockstore.controller import Posting
from repro.core.spfresh import EngineStats, SPFreshConfig, SPFreshIndex
from repro.spark_index.store import SparkPostingStore


def build_index(
    spark: SparkSession, vecs: np.ndarray, vids: np.ndarray, config: SPFreshConfig, root: str
) -> SPFreshIndex:
    """Build a balanced index (paper §3.1) into a fresh Parquet store under
    ``root``, then commit it: its rows are the build's one Parquet file."""
    idx = SPFreshIndex.build(vecs, vids, config, SparkPostingStore(spark, root, config.dim))
    commit(idx)
    return idx


def insert_batch(idx: SPFreshIndex, vids: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The core Updater's ``insert_batch``, then the batch's rows as one new
    Parquet file, written with Arrow: no existing file is rewritten, as the
    Block Controller's appends rewrite no full block, and no Spark job
    runs. A batch the Updater refuses appends nothing."""
    lats = idx.insert_batch(vids, vecs)
    idx.controller.flush()
    return lats


# -- persistence of driver metadata (§4.4 snapshot analog) ---------------
def commit(idx: SPFreshIndex) -> None:
    """Commit the driver metadata: the pickled index (config, centroids,
    version map, job queue with its ``_pending`` set, ``EngineStats``) with
    its store's generation number and lengths, but no posting row. It is
    written to a tmp file and ``os.replace``d, so a crash leaves the old or
    the new record whole; then the dataset generations older than the one
    it records are deleted."""
    store = idx.controller
    store.flush()
    path = os.path.join(store.root, "meta.pkl")
    with open(path + ".tmp", "wb") as fh:
        pickle.dump(idx, fh)
    os.replace(path + ".tmp", path)
    for name in os.listdir(store.root):
        m = re.fullmatch(r"postings_v(\d+)", name)
        if m and int(m.group(1)) < store._gen:
            shutil.rmtree(os.path.join(store.root, name))


def load_index(spark: SparkSession, root: str) -> SPFreshIndex:
    """The index as its last commit under ``root`` left it."""
    with open(os.path.join(root, "meta.pkl"), "rb") as fh:
        idx = pickle.load(fh)
    idx.controller.spark, idx.controller.root = spark, root
    return idx


# -- maintenance (§4.2) ---------------------------------------------------
def live_rows(idx: SPFreshIndex) -> tuple[list[int], np.ndarray, Posting]:
    """The index's live filter over the whole store: one ``get_batch`` of
    every alive posting, then ``SPFreshIndex.live_rows``. Returns the
    alive pids, each one's live count and their live rows, posting by
    posting in that order; no Spark job runs."""
    pids = idx.centroid_index.alive_ids.tolist()
    postings, _ = idx.controller.get_batch([pids])
    fetched = [postings[pid] for pid in pids]
    _, live, n_live = idx.live_rows(fetched)
    rows = Posting.concat(fetched).take(live) if len(live) else Posting.empty(idx.config.dim)
    return pids, n_live, rows


def live_sizes(idx: SPFreshIndex) -> dict[int, int]:
    """``{pid: n_live}`` for every alive posting, empty ones included. For
    inspection: the schedule reads the store's lengths."""
    pids, n_live, _ = live_rows(idx)
    return dict(zip(pids, n_live.tolist()))


def compact(idx: SPFreshIndex) -> None:
    """Rewrite the dataset keeping only live rows: the storage GC of the
    rows that the jobs' puts, moves and merges left stale, as one Arrow
    file of the next dataset generation."""
    pids, n_live, rows = live_rows(idx)
    idx.controller.compact(np.repeat(pids, n_live), rows)


def rebalance(idx: SPFreshIndex) -> EngineStats:
    """Drain the Local Rebuilder's job queue, compact if a job ran, then
    commit. Returns the index's ``EngineStats``, which count since the
    build, as the core engine's do. With ``config.rebalance`` off (SPANN+)
    the queue holds only the split job's GC, as on the core engine."""
    if idx.process_jobs():
        compact(idx)
    commit(idx)
    return idx.stats
