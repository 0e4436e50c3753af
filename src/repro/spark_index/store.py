"""Parquet posting store + driver-side index metadata.

The on-disk layout mirrors the paper's Block Controller responsibilities
translated to a datalake: postings are rows ``(pid, vid, version, vec)``
in a Parquet dataset (appends add files — the APPEND path; compaction
rewrites — the PUT/GC path), while the centroid index and the version
map stay in driver memory like the paper's in-memory SPTAG index and
version map. Each compaction writes a new dataset generation to a
``postings_v{n}`` dir and leaves the old one untouched (copy-on-write at
dataset granularity); the generation in use is the one recorded in the
driver metadata that ``save_meta`` writes and ``load`` reads.
"""
from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.centroid_index import CentroidIndex
from repro.core.spfresh import SPFreshConfig
from repro.core.version_map import VersionMap

POSTING_SCHEMA = T.StructType(
    [
        T.StructField("pid", T.LongType(), False),
        T.StructField("vid", T.LongType(), False),
        T.StructField("version", T.IntegerType(), False),
        T.StructField("vec", T.ArrayType(T.DoubleType()), False),
    ]
)


def rows_to_pdf(pids, vids, versions, vecs) -> pd.DataFrame:
    """Assemble a pandas frame matching POSTING_SCHEMA."""
    return pd.DataFrame(
        {
            "pid": np.asarray(pids, dtype=np.int64),
            "vid": np.asarray(vids, dtype=np.int64),
            "version": np.asarray(versions, dtype=np.int32),
            "vec": [np.asarray(v, dtype=np.float64).tolist() for v in vecs],
        }
    )


@dataclass
class StoreStats:
    """Dataset-level job accounting (the Spark analog of IOPS counters)."""

    appends: int = 0
    compactions: int = 0
    rows_appended: int = 0


class SparkPostingStore:
    """Posting dataset + driver metadata for the Spark SPFresh engine."""

    def __init__(self, spark: SparkSession, root: str, config: SPFreshConfig):
        self.spark = spark
        self.root = root
        self.config = config
        self.centroid_index = CentroidIndex(config.dim)
        self.version_map = VersionMap()
        self.stats = StoreStats()
        self._gen = 0
        os.makedirs(root, exist_ok=True)

    # -- dataset versioning ----------------------------------------------
    @property
    def postings_path(self) -> str:
        return os.path.join(self.root, f"postings_v{self._gen}")

    def write_postings(self, df: DataFrame) -> None:
        """Write a full new dataset generation and switch to it."""
        self._gen += 1
        df.write.mode("overwrite").parquet(self.postings_path)
        self.stats.compactions += 1

    def append_rows(self, pdf: pd.DataFrame) -> None:
        """Append new posting tuples (the APPEND path: files only added)."""
        if not len(pdf):
            return
        df = self.spark.createDataFrame(pdf, schema=POSTING_SCHEMA)
        df.write.mode("append").parquet(self.postings_path)
        self.stats.appends += 1
        self.stats.rows_appended += len(pdf)

    def postings_df(self) -> DataFrame:
        return self.spark.read.schema(POSTING_SCHEMA).parquet(self.postings_path)

    # -- driver metadata as DataFrames -----------------------------------
    def versions_df(self) -> DataFrame:
        """Version map as (vid, cur_version, deleted) for live-row joins."""
        vids, versions, deleted = self.version_map.entries()
        pdf = pd.DataFrame(
            {
                "vid": vids.astype(np.int64),
                "cur_version": versions.astype(np.int32),
                "deleted": deleted,
            }
        )
        schema = T.StructType(
            [
                T.StructField("vid", T.LongType(), False),
                T.StructField("cur_version", T.IntegerType(), False),
                T.StructField("deleted", T.BooleanType(), False),
            ]
        )
        return self.spark.createDataFrame(pdf, schema=schema)

    def centroids_df(self) -> DataFrame:
        """Alive centroids as (pid, cvec)."""
        alive = self.centroid_index.alive_ids
        pdf = pd.DataFrame(
            {
                "pid": alive.astype(np.int64),
                "cvec": [self.centroid_index.centroid(int(p)).tolist() for p in alive],
            }
        )
        schema = T.StructType(
            [
                T.StructField("pid", T.LongType(), False),
                T.StructField("cvec", T.ArrayType(T.DoubleType()), False),
            ]
        )
        return self.spark.createDataFrame(pdf, schema=schema)

    def live_df(self) -> DataFrame:
        """Live posting rows: version matches, not tombstoned, and the
        posting still exists (split/merged-away pids are filtered by the
        alive-pid join, the dataset analog of ``controller.delete``). One
        row per (pid, vid) — the Spark twin of ``SPFreshIndex._live``."""
        p = self.postings_df()
        v = self.versions_df()
        alive = self.centroids_df().select("pid")
        joined = (
            p.join(v, on="vid", how="inner")
            .join(alive, on="pid", how="inner")
            .where((F.col("version") == F.col("cur_version")) & (~F.col("deleted")))
            .select("pid", "vid", "version", "vec")
        )
        return joined.dropDuplicates(["pid", "vid"])

    # -- live sizes (drives split/merge decisions) -----------------------
    def live_sizes(self) -> pd.DataFrame:
        """(pid, n_live) for every alive posting, including empty ones."""
        sizes = self.live_df().groupBy("pid").agg(F.count("*").alias("n_live")).toPandas()
        alive = pd.DataFrame({"pid": self.centroid_index.alive_ids.astype(np.int64)})
        out = alive.merge(sizes, on="pid", how="left").fillna({"n_live": 0})
        out["n_live"] = out["n_live"].astype(np.int64)
        return out

    # -- persistence of driver metadata (§4.4 snapshot analog) -----------
    def save_meta(self) -> None:
        with open(os.path.join(self.root, "meta.pkl"), "wb") as fh:
            pickle.dump(
                {
                    "config": self.config,
                    "centroid_index": self.centroid_index,
                    "version_map": self.version_map,
                    "gen": self._gen,
                },
                fh,
            )

    @classmethod
    def load(cls, spark: SparkSession, root: str) -> "SparkPostingStore":
        with open(os.path.join(root, "meta.pkl"), "rb") as fh:
            meta = pickle.load(fh)
        self = cls(spark, root, meta["config"])
        self.centroid_index = meta["centroid_index"]
        self.version_map = meta["version_map"]
        self._gen = meta["gen"]
        return self
