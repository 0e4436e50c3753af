"""The Spark SPFresh engine: an ``SPFreshIndex`` over a Parquet posting store.

The Updater, the Local Rebuilder and the Searcher's read step are the core
engine's, run by :class:`~repro.core.spfresh.SPFreshIndex` on the driver
over a :class:`SparkPostingStore`, exactly like the paper's in-memory SPTAG
index, version map and Block Mapping over its disk. This module holds what
is Spark's own:

- :func:`build_index` and :func:`insert_batch`, the core's calls followed
  by one Parquet file of their rows, written with Arrow on the driver;
- the metadata commit (:func:`commit`) and :func:`load_index`;
- the live view as DataFrames, which read the index's version map and
  alive posting ids, for compaction and inspection;
- :func:`compact`, a Spark rewrite, and :func:`rebalance`.

Deletes are the core's ``SPFreshIndex.delete``: tombstones in the version
map, with no Parquet write (rows go at the next compaction).
"""
from __future__ import annotations

import os
import pickle
import re
import shutil

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.spfresh import EngineStats, SPFreshConfig, SPFreshIndex
from repro.spark_index.store import SparkPostingStore, arrow_table


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


# -- the live view as DataFrames -----------------------------------------
def versions_df(idx: SPFreshIndex) -> DataFrame:
    """Version map as (vid, cur_version, deleted) for live-row joins."""
    vids, versions, deleted = idx.version_map.entries()
    table = arrow_table(
        vid=vids.astype(np.int64), cur_version=versions.astype(np.int32), deleted=deleted
    )
    return idx.controller.spark.createDataFrame(table)


def live_df(idx: SPFreshIndex) -> DataFrame:
    """Live posting rows: version matches, not tombstoned, and the
    posting still exists (split/merged-away pids are filtered by the
    alive-pid join, the dataset analog of ``controller.delete``). One
    row per (pid, vid) — the Spark twin of ``SPFreshIndex.live``. Compaction
    and ``live_sizes`` read it; a search scans the rows its read step holds."""
    store = idx.controller
    alive = store.spark.createDataFrame(arrow_table(pid=idx.centroid_index.alive_ids))
    joined = (
        store.postings_df()
        .join(versions_df(idx), on="vid", how="inner")
        .join(alive, on="pid", how="inner")
        .where((F.col("version") == F.col("cur_version")) & (~F.col("deleted")))
        .select("pid", "vid", "version", "vec")
    )
    return joined.dropDuplicates(["pid", "vid"])


def live_sizes(idx: SPFreshIndex) -> pd.DataFrame:
    """(pid, n_live) for every alive posting, including empty ones. For
    inspection: the schedule reads the store's lengths."""
    sizes = live_df(idx).groupBy("pid").agg(F.count("*").alias("n_live")).toPandas()
    alive = pd.DataFrame({"pid": idx.centroid_index.alive_ids.astype(np.int64)})
    out = alive.merge(sizes, on="pid", how="left").fillna({"n_live": 0})
    out["n_live"] = out["n_live"].astype(np.int64)
    return out


# -- maintenance (§4.2) ---------------------------------------------------
def compact(idx: SPFreshIndex) -> None:
    """Rewrite the dataset keeping only live rows: the storage GC of the
    rows that the jobs' puts, moves and merges left stale. The live
    DataFrame is resolved against the current dataset generation and
    written to the next one, so no row passes through the driver."""
    idx.controller.write_postings(live_df(idx))


def rebalance(idx: SPFreshIndex) -> EngineStats:
    """Drain the Local Rebuilder's job queue, compact if a job ran, then
    commit. Returns the index's ``EngineStats``, which count since the
    build, as the core engine's do. With ``config.rebalance`` off (SPANN+)
    the queue holds only the split job's GC, as on the core engine."""
    if idx.process_jobs():
        compact(idx)
    commit(idx)
    return idx.stats
