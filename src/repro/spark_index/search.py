"""Batch KNN search: navigation on the driver, the scan as a DataFrame plan
(paper §3.1).

A search first runs the core Searcher's read step
(``SPFreshIndex.probe``) once for the whole batch, on the driver: one
navigation GEMM over the in-memory centroid index picks each query's
``nprobe`` postings, as the paper's SPTAG index does, and the read of
those postings, one Arrow read with no Spark job, queues a merge job for
each one with fewer than ``merge_limit`` live rows. The probed
``(qid, pid)`` pairs, the live rows that read found as ``(pid, vid,
vec)`` and the queries then go to Spark as Arrow tables, and its plan is
three relational steps:

1. posting scan — join the probes with those live rows on ``pid``;
2. replica dedupe — min distance per ``(qid, vid)``;
3. final top-k — ``row_number`` over ``(distance, vid)`` per query.

Each probed posting is thus read once, and the scan touches no other
row: its rows grow with nprobe, not with the dataset. The merge trigger
and the scan see the same postings.

``duckdb_twin_sql`` emits the equivalent DuckDB SQL over the relations
the search reads, with the navigation done in SQL, so
``repro.oracle.assert_equivalent`` catches any divergence in the driver's
navigation or in the Spark plan (wrong probes, wrong join, wrong dedupe,
wrong ranking).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.spfresh import SPFreshIndex
from repro.spark_index.store import arrow_table

# squared L2 between two array<double> columns, in pure Spark SQL
SQ_L2 = (
    "aggregate(zip_with({a}, {b}, (x, y) -> (x - y) * (x - y)), "
    "cast(0.0 as double), (acc, x) -> acc + x)"
)


def search_topk(idx: SPFreshIndex, queries: np.ndarray, *, k: int) -> DataFrame:
    """Full clustered search; returns (qid, vid, rnk) with rnk in 1..k.
    The driver's read step picks each query's postings, reads them and
    queues merges for the undersized ones (SPANN+ queues none); the plan
    scans the live rows it read."""
    queries = np.asarray(queries, dtype=np.float64)
    probed, batch, _, rows = idx.probe(queries)
    spark = idx.controller.spark
    if rows is None:
        return spark.createDataFrame([], "qid long, vid long, rnk int")
    live, n_live = rows
    qids = np.arange(len(queries), dtype=np.int64)
    probes = spark.createDataFrame(
        arrow_table(qid=np.repeat(qids, probed.shape[1]), pid=probed.ravel())
    )
    q_df = spark.createDataFrame(arrow_table(qid=qids, qvec=queries))
    rows_df = spark.createDataFrame(arrow_table(
        pid=np.repeat(batch.pids, n_live), vid=batch.rows.vids[live], vec=batch.rows.vecs[live]
    ))
    cand = (
        probes.join(rows_df, on="pid")
        .join(q_df, on="qid")
        .select("qid", "vid", F.expr(SQ_L2.format(a="qvec", b="vec")).alias("d"))
    )
    best = cand.groupBy("qid", "vid").agg(F.min("d").alias("d"))  # replica dedupe
    ranked = best.withColumn(
        "rnk", F.row_number().over(Window.partitionBy("qid").orderBy("d", "vid"))
    )
    return ranked.where(F.col("rnk") <= k).select("qid", "vid", "rnk")


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
    pdf = search_topk(idx, queries, k=k).toPandas()
    out: list[np.ndarray] = []
    for qid in range(len(queries)):
        rows = pdf[pdf["qid"] == qid].sort_values("rnk")
        out.append(rows["vid"].to_numpy(dtype=np.int64))
    return out
