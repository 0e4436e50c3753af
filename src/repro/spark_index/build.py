"""Initial balanced build of the Spark index (paper §3.1).

The layout (centroids and every vector's closure of nearest postings)
comes from the LIRE planner on the driver, as for the core engine — SPANN's
build also computes centroids centrally; they are the in-memory index.
The posting rows, one per (vector, replica), are written as the first
dataset generation.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.core import lire
from repro.core.spfresh import SPFreshConfig
from repro.spark_index.store import POSTING_SCHEMA, SparkPostingStore, rows_to_pdf


def build_index(
    spark: SparkSession,
    vecs: np.ndarray,
    vids: np.ndarray,
    config: SPFreshConfig,
    root: str,
) -> SparkPostingStore:
    """Build a balanced Spark-backed SPFresh index from scratch."""
    store = SparkPostingStore(spark, root, config)
    vecs = np.asarray(vecs, dtype=np.float64)
    vids = np.asarray(vids, dtype=np.int64)
    centroids, rows, cols = lire.build_layout(vecs, config)
    pids = np.asarray([store.centroid_index.add(c) for c in centroids], dtype=np.int64)
    store.version_map.add_many(vids)
    pdf = rows_to_pdf(pids[cols], vids[rows], np.zeros(len(rows)), vecs[rows])
    store.write_postings(spark.createDataFrame(pdf, schema=POSTING_SCHEMA))
    store.save_meta()
    return store
