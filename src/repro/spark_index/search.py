"""Batch KNN search as a pure DataFrame pipeline (paper §3.1).

The clustered-search plan, expressed entirely in Spark SQL relational
operators so the DuckDB oracle can run a line-for-line SQL twin:

1. probe selection — queries × centroids, squared-L2 via a Spark SQL
   ``aggregate(zip_with(...))`` expression, ``row_number`` over
   ``(distance, pid)`` per query, keep ``nprobe``;
2. posting scan — join probes with live posting rows on ``pid``;
3. replica dedupe — min distance per ``(qid, vid)``;
4. final top-k — ``row_number`` over ``(distance, vid)`` per query.

A search first runs the core Searcher's read step
(``SPFreshIndex.probe``) once for the whole batch, which queues a merge
job for each probed posting with fewer than ``merge_limit`` live rows; the
driver picks and counts those postings, so the job schedule never depends
on SQL float rounding.

``duckdb_twin_sql`` emits the equivalent DuckDB SQL over the same four
relations so ``repro.oracle.assert_equivalent`` catches any divergence
in the Spark plan (wrong join, wrong dedupe, wrong ranking).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.spfresh import SPFreshIndex
from repro.spark_index.engine import centroids_df, live_df

# squared L2 between two array<double> columns, in pure Spark SQL
SQ_L2 = (
    "aggregate(zip_with({a}, {b}, (x, y) -> (x - y) * (x - y)), "
    "cast(0.0 as double), (acc, x) -> acc + x)"
)


def queries_df(idx: SPFreshIndex, queries: np.ndarray) -> DataFrame:
    pdf = pd.DataFrame(
        {
            "qid": np.arange(len(queries), dtype=np.int64),
            "qvec": [np.asarray(q, dtype=np.float64).tolist() for q in queries],
        }
    )
    schema = T.StructType(
        [
            T.StructField("qid", T.LongType(), False),
            T.StructField("qvec", T.ArrayType(T.DoubleType()), False),
        ]
    )
    return idx.controller.spark.createDataFrame(pdf, schema=schema)


def probe_postings(q_df: DataFrame, centroids: DataFrame, nprobe: int) -> DataFrame:
    """Per query, the ``nprobe`` nearest posting ids: (qid, pid)."""
    d = F.expr(SQ_L2.format(a="qvec", b="cvec")).alias("cd")
    ranked = (
        q_df.crossJoin(centroids)
        .select("qid", "pid", d)
        .withColumn(
            "rnk", F.row_number().over(Window.partitionBy("qid").orderBy("cd", "pid"))
        )
    )
    return ranked.where(F.col("rnk") <= nprobe).select("qid", "pid")


def search_topk(idx: SPFreshIndex, queries: np.ndarray, *, k: int) -> DataFrame:
    """Full clustered search; returns (qid, vid, rnk) with rnk in 1..k.
    Its read step queues merges for undersized probed postings; SPANN+
    queues none, so it skips the read."""
    if idx.config.rebalance:
        idx.probe(np.asarray(queries, dtype=np.float64))
    q_df = queries_df(idx, queries)
    probes = probe_postings(q_df, centroids_df(idx), idx.config.nprobe)
    live = live_df(idx)
    cand = (
        probes.join(live, on="pid")
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
        -- alive-pid join mirrors engine.live_df: rows of
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
