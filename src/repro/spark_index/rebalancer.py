"""LIRE rebalancing as incremental Spark jobs (paper §3.2–§3.3, §4.2).

One ``rebalance`` call plays the role of draining the Local Rebuilder's
job queue after a batch of foreground updates:

- **split job** — one distributed pass: the live rows of every oversized
  posting are grouped by pid and split with balanced 2-means inside
  ``applyInPandas``; the driver registers the new centroids (its centroid
  index is the paper's in-memory SPTAG index) and the new-pid rows are
  appended. Old-pid rows die via the alive-pid filter in ``live_df``.
- **reassign job** — one distributed pass: live rows of the split
  postings and their ``reassign_range`` nearest neighbor postings are
  screened with LIRE's two necessary conditions (broadcast split info),
  surviving candidates get their closure re-computed against the post-
  split centroid set; actual moves CAS-bump the version map on the
  driver and append rows at the new version (old replicas become stale).
- **merge job** — undersized postings are folded into their nearest
  posting; moved vectors get the merge-path reassign check (no neighbor
  scan, per §4.2.1).
- **compaction** — a dataset rewrite keeping only live rows: the GC that
  the paper performs inside split jobs, at dataset granularity.

Split→reassign→split cascades are the convergence loop of §3.4: the
round loop terminates because every split grows the centroid set by one
and |C| ≤ |V|.

Every decision inside these jobs (split, reassign scope, condition
screening, the final NPA check with CAS, merge target) is made by the
planner in :mod:`repro.core.lire`, the same calls the core engine makes;
this module keeps the Spark execution and the Parquet storage.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import lire
from repro.core.spfresh import EngineStats
from repro.spark_index.store import SparkPostingStore, rows_to_pdf

_SPLIT_OUT_SCHEMA = T.StructType(
    [
        T.StructField("old_pid", T.LongType(), False),
        T.StructField("sub", T.IntegerType(), False),
        T.StructField("vid", T.LongType(), False),
        T.StructField("version", T.IntegerType(), False),
        T.StructField("vec", T.ArrayType(T.DoubleType()), False),
        T.StructField("cvec", T.ArrayType(T.DoubleType()), False),
    ]
)

_CAND_SCHEMA = T.StructType(
    [
        T.StructField("vid", T.LongType(), False),
        T.StructField("version", T.IntegerType(), False),
        T.StructField("cur_pid", T.LongType(), False),
        T.StructField("vec", T.ArrayType(T.DoubleType()), False),
    ]
)


@dataclass
class SplitInfo:
    old_pid: int
    old_centroid: np.ndarray
    new_pids: list[int]
    new_centroids: np.ndarray


def _split_job(store: SparkPostingStore, oversized_pids: list[int]) -> list[SplitInfo]:
    """Distributed balanced 2-means over every oversized posting."""
    live = store.live_df().where(F.col("pid").isin([int(p) for p in oversized_pids]))
    cfg = store.config

    def split_one(pdf: pd.DataFrame) -> pd.DataFrame:
        pid = int(pdf["pid"].iloc[0])
        order, centers, labels = lire.split(
            pdf["vid"].to_numpy(), np.stack(pdf["vec"].map(np.asarray)), cfg
        )
        pdf = pdf.iloc[order]
        return pd.DataFrame(
            {
                "old_pid": pid,
                "sub": labels.astype(np.int32),
                "vid": pdf["vid"].to_numpy(np.int64),
                "version": pdf["version"].to_numpy(np.int32),
                "vec": pdf["vec"].to_numpy(),
                "cvec": [centers[l].tolist() for l in labels],
            }
        )

    out = live.groupBy("pid").applyInPandas(split_one, schema=_SPLIT_OUT_SCHEMA).toPandas()
    infos: list[SplitInfo] = []
    new_rows = []
    for old_pid, grp in out.groupby("old_pid"):
        old_centroid = store.centroid_index.centroid(int(old_pid)).copy()
        new_pids, new_cents = [], []
        for sub, sg in grp.groupby("sub"):
            c = np.asarray(sg["cvec"].iloc[0])
            pid = store.centroid_index.add(c)
            new_pids.append(pid)
            new_cents.append(c)
            new_rows.append(
                rows_to_pdf(
                    np.full(len(sg), pid),
                    sg["vid"].to_numpy(),
                    sg["version"].to_numpy(),
                    list(sg["vec"]),
                )
            )
        store.centroid_index.remove(int(old_pid))
        infos.append(SplitInfo(int(old_pid), old_centroid, new_pids, np.stack(new_cents)))
    if new_rows:
        store.append_rows(pd.concat(new_rows, ignore_index=True))
    return infos


def _reassign_job(store: SparkPostingStore, infos: list[SplitInfo], stats: EngineStats) -> None:
    """Condition screening + closure recompute as one distributed pass."""
    cfg = store.config
    if not infos:
        return
    # pid → split assignments (a pid can neighbor several splits)
    mapping_rows = []
    split_payload = {}
    for sid, info in enumerate(infos):
        split_payload[sid] = (info.old_centroid, info.new_centroids)
        for pid in info.new_pids:
            mapping_rows.append((int(pid), sid, True))
        for pid in lire.reassign_scope(
            store.centroid_index, info.old_centroid, info.new_pids, cfg.reassign_range
        ):
            mapping_rows.append((pid, sid, False))
    mapping_pdf = pd.DataFrame(mapping_rows, columns=["pid", "split_id", "is_split"])
    mapping = store.spark.createDataFrame(mapping_pdf)
    bc = store.spark.sparkContext.broadcast(split_payload)

    def screen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        payload = bc.value
        for pdf in batches:
            if not len(pdf):
                continue
            keep_rows = []
            for sid, grp in pdf.groupby("split_id"):
                old_c, new_c = payload[int(sid)]
                vecs = np.stack(grp["vec"].map(np.asarray))
                mask = lire.reassign_candidate_mask(vecs, old_c, new_c, grp["is_split"].to_numpy())
                if mask.any():
                    keep_rows.append(grp.iloc[np.flatnonzero(mask)])
            if keep_rows:
                sel = pd.concat(keep_rows)
                yield pd.DataFrame(
                    {
                        "vid": sel["vid"].to_numpy(np.int64),
                        "version": sel["version"].to_numpy(np.int32),
                        "cur_pid": sel["pid"].to_numpy(np.int64),
                        "vec": sel["vec"].to_numpy(),
                    }
                )

    live = store.live_df()
    scanned = live.join(mapping, on="pid")
    stats.reassign_evaluated += scanned.count()
    cand = scanned.mapInPandas(screen, schema=_CAND_SCHEMA).toPandas()
    if len(cand):
        _move(store, cand, stats)


def _move(store: SparkPostingStore, cand: pd.DataFrame, stats: EngineStats) -> pd.DataFrame:
    """Plan the candidates' moves and append the moved rows at their new
    versions; returns the appended rows."""
    plan = lire.plan_moves(
        cand["vid"].to_numpy(),
        cand["version"].to_numpy(),
        np.stack(cand["vec"].map(np.asarray)),
        cand["cur_pid"].to_numpy(),
        store.centroid_index,
        store.version_map,
        store.config,
    )
    stats.reassign_moved += plan.moved
    stats.reassign_aborted_cas += plan.aborted
    pdf = rows_to_pdf(plan.pids, plan.vids, plan.versions, plan.vecs)
    store.append_rows(pdf)
    return pdf


def _merge_job(store: SparkPostingStore, undersized_pids: list[int], stats: EngineStats) -> None:
    """Fold undersized postings into their nearest posting (§3.2).

    Works off one live-rows snapshot plus an overlay of rows appended by
    earlier merges in this job — a later merge may dissolve a posting an
    earlier merge just appended into, and those rows must move along.
    """
    cfg = store.config
    live = store.live_df().where(F.col("pid").isin([int(p) for p in undersized_pids])).toPandas()
    overlay: list[pd.DataFrame] = []

    def rows_for(pid: int) -> pd.DataFrame:
        rows = pd.concat([r[r["pid"] == pid] for r in [live, *overlay]], ignore_index=True)
        stale = store.version_map.is_stale(rows["vid"].to_numpy(), rows["version"].to_numpy())
        return rows[~stale].drop_duplicates(subset=["vid"], keep="first")

    for pid in undersized_pids:
        pid = int(pid)
        if pid not in store.centroid_index:
            continue
        target = lire.merge_target(store.centroid_index, pid)
        if target is None:
            continue
        rows = rows_for(pid)
        store.centroid_index.remove(pid)
        stats.merges += 1
        if not len(rows):
            continue
        # the vectors land in the target posting at their current versions
        moved_in = rows_to_pdf(np.full(len(rows), target), rows["vid"], rows["version"], rows["vec"])
        store.append_rows(moved_in)
        overlay.append(moved_in)
        # merge-path reassign check on the moved vectors (no neighbor scan)
        if cfg.reassign:
            stats.reassign_evaluated += len(rows)
            overlay.append(_move(store, moved_in.assign(cur_pid=target), stats))


def compact(store: SparkPostingStore) -> None:
    """Rewrite the dataset keeping only live rows (split-GC analog).

    The live DataFrame is resolved against the current dataset generation
    and written to the next one, so this is a pure Spark job — no data
    passes through the driver.
    """
    store.write_postings(store.live_df())


def rebalance(store: SparkPostingStore, *, max_rounds: int = 20) -> EngineStats:
    """Drain all split/merge/reassign work until the index is balanced.

    Returns the core engine's counters; this call fills ``splits``,
    ``merges`` and the ``reassign_*`` counts the core engine fills too.

    With ``config.rebalance`` off (SPANN+) there is no such work: the call
    only compacts away stale rows, the GC that SPANN+ keeps.
    """
    cfg = store.config
    stats = EngineStats()
    if not cfg.rebalance:
        compact(store)
        store.save_meta()
        return stats
    for _ in range(max_rounds):
        sizes = store.live_sizes()
        oversized = sizes[sizes["n_live"] > cfg.split_limit]["pid"].tolist()
        undersized = (
            sizes[sizes["n_live"] < cfg.merge_limit]["pid"].tolist()
            if len(store.centroid_index) > 1
            else []
        )
        if not oversized and not undersized:
            break
        if oversized:
            infos = _split_job(store, oversized)
            stats.splits += len(infos)
            if cfg.reassign:
                _reassign_job(store, infos, stats)
        elif undersized:
            _merge_job(store, undersized, stats)
        compact(store)
    store.save_meta()
    return stats
