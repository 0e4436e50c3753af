"""Batch KNN search: navigation on the driver, the core's scan in Spark tasks
(paper §3.1).

A search first runs the core Searcher's read step
(``SPFreshIndex.probe``) once for the whole batch, on the driver: one
navigation GEMM over the in-memory centroid index picks each query's
``nprobe`` postings, as the paper's SPTAG index does, and the read of
those postings, one Arrow read with no Spark job, queues a merge job for
each one with fewer than ``merge_limit`` live rows. Spark then runs the
core Searcher's scan step (:func:`~repro.core.spfresh.scan_topk`) in one
``mapInArrow`` job, one row per slice of ``SEARCH_SLICE`` queries: each
slice scans the live rows of the postings its queries probed, with the
probe places and the read's live rows captured in the task's closure.
The two engines thus share one scan, the same distances, replica dedupe
and ``(distance, vid)`` order; each probed posting is read once, and the
scan touches no other row, so its rows grow with nprobe, not with the
dataset. The merge trigger and the scan see the same postings. The
Python workers import :mod:`repro`, which must be installed or on
``PYTHONPATH``.

``duckdb_twin_sql`` emits the equivalent DuckDB SQL over the relations
the search reads, with the navigation done in SQL, so
``repro.oracle.assert_equivalent`` catches any divergence in the driver's
navigation or in the scan (wrong probes, wrong rows, wrong dedupe, wrong
ranking).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame

from repro.core.spfresh import SEARCH_SLICE, SPFreshIndex, scan_topk


def search_topk(idx: SPFreshIndex, queries: np.ndarray, *, k: int) -> DataFrame:
    """Full clustered search; returns (qid, vid, rnk) with rnk in 1..k.
    The driver's read step picks each query's postings, reads them and
    queues merges for the undersized ones (SPANN+ queues none); one Spark
    job scans the live rows it read, a slice of queries per row."""
    queries = np.asarray(queries, dtype=np.float64)
    slot, batch, _, (live, n_live) = idx.probe(queries)
    # the closure keeps the live rows alone, at places 0..n-1
    rows, norms, at = batch.rows.take(live), batch.norms[live], np.arange(len(live))

    def scan(parts):
        for part in parts:
            for lo in (part.column("id").to_numpy() * SEARCH_SLICE).tolist():
                hi = lo + SEARCH_SLICE
                ids = scan_topk(queries[lo:hi], slot[lo:hi], at, n_live, rows, norms, k)
                lens = [len(i) for i in ids]
                yield pa.RecordBatch.from_pydict({
                    "qid": np.repeat(np.arange(lo, lo + len(ids)), lens),
                    "vid": np.concatenate(ids),
                    "rnk": np.concatenate([np.arange(1, n + 1, dtype=np.int32) for n in lens]),
                })

    n_slices = -(-len(queries) // SEARCH_SLICE)
    return idx.controller.spark.range(n_slices).mapInArrow(scan, "qid long, vid long, rnk int")


def duckdb_twin_sql(nprobe: int, k: int) -> str:
    """DuckDB SQL computing the same (qid, vid, rnk) over the relations
    ``queries(qid, qvec)``, ``centroids(pid, cvec)``,
    ``postings(pid, vid, version, vec)``, ``versions(vid, cur_version,
    deleted)``."""
    return f"""
    WITH probes AS (
        SELECT q.qid, c.pid,
               row_number() OVER (
                   PARTITION BY q.qid
                   ORDER BY list_distance(q.qvec, c.cvec) ** 2, c.pid
               ) AS rnk
        FROM queries q CROSS JOIN centroids c
    ), sel AS (
        SELECT qid, pid FROM probes WHERE rnk <= {nprobe}
    ), live AS (
        -- alive-pid join mirrors engine.live_rows: rows of
        -- split/merged-away postings are dead even if their version holds
        SELECT DISTINCT p.pid, p.vid, p.vec
        FROM postings p
        JOIN versions v ON p.vid = v.vid
        JOIN centroids c2 ON p.pid = c2.pid
        WHERE p.version = v.cur_version AND NOT v.deleted
    ), cand AS (
        SELECT s.qid, l.vid, min(list_distance(q.qvec, l.vec) ** 2) AS d
        FROM sel s
        JOIN live l ON s.pid = l.pid
        JOIN queries q ON q.qid = s.qid
        GROUP BY s.qid, l.vid
    ), ranked AS (
        SELECT qid, vid,
               row_number() OVER (PARTITION BY qid ORDER BY d, vid) AS rnk
        FROM cand
    )
    SELECT qid, vid, rnk FROM ranked WHERE rnk <= {k}
    """


def search_results_matrix(idx: SPFreshIndex, queries: np.ndarray, *, k: int) -> list[np.ndarray]:
    """Collect search_topk into per-query vid arrays (rank order)."""
    pdf = search_topk(idx, queries, k=k).toPandas().sort_values(["qid", "rnk"])
    bounds = np.searchsorted(pdf["qid"].to_numpy(), np.arange(1, len(queries)))
    # one array per query: np.split cuts an empty batch into one array too
    return np.split(pdf["vid"].to_numpy(dtype=np.int64), bounds)[: len(queries)]
