"""Initial balanced build of the Spark index (paper §3.1).

The layout (centroids and every vector's closure of nearest postings)
comes from the LIRE planner on the driver and is put into the store by the
same :meth:`LocalRebuilder.build` call as for the core engine — SPANN's
build also computes centroids centrally; they are the in-memory index.
The posting rows, one per (vector, replica), are written as one Parquet
append when the metadata is committed.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.core.spfresh import SPFreshConfig
from repro.spark_index.store import SparkPostingStore


def build_index(
    spark: SparkSession,
    vecs: np.ndarray,
    vids: np.ndarray,
    config: SPFreshConfig,
    root: str,
) -> SparkPostingStore:
    """Build a balanced Spark-backed SPFresh index from scratch."""
    store = SparkPostingStore(spark, root, config)
    store.rebuilder.build(np.asarray(vecs, dtype=np.float64), np.asarray(vids, dtype=np.int64))
    store.save_meta()
    return store
