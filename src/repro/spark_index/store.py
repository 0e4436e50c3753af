"""Parquet posting store + driver-side index metadata.

The store is the Spark engine's Block Controller (paper §4.3). Postings
are rows ``(pid, vid, version, vec)`` in a Parquet dataset on the local
filesystem (the object-store stand-in). The centroid index, the version
map and each posting's length stay in driver memory, like the paper's
in-memory SPTAG index, version map and Block Mapping.

The store offers the Block Controller's posting calls, so the core's
:class:`~repro.core.spfresh.LocalRebuilder` runs over it unchanged; each
call returns 0 simulated µs:

- ``get`` / ``get_many`` read the postings' rows in one Spark job;
- ``append`` buffers rows; the buffer is written as one Parquet append
  before the next read of the dataset and before a metadata commit;
- ``put`` is an append plus a length reset. The rebuilder puts only a
  posting's own live rows (GC) or a fresh pid (split), so the rows a put
  replaces are stale or duplicates: the live view drops them, and
  compaction deletes them;
- ``delete`` drops the length; the pid's rows die with its centroid.

Compaction writes the live rows as a new dataset generation, a
``postings_v{n}`` dir, and leaves the old one untouched (copy-on-write at
dataset granularity). It changes no length: it is storage GC, which the
schedule never sees. The generation in use is the one recorded in the
driver metadata that ``save_meta`` writes and ``load`` reads, with the
lengths and the rebuilder's queued jobs; ``save_meta`` deletes the
generations older than that one.
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
from pyspark.sql import types as T

from repro.blockstore.controller import Posting
from repro.core.centroid_index import CentroidIndex
from repro.core.spfresh import EngineStats, LocalRebuilder, SPFreshConfig
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


class SparkPostingStore:
    """Posting dataset + driver metadata for the Spark SPFresh engine."""

    def __init__(self, spark: SparkSession, root: str, config: SPFreshConfig):
        self.spark = spark
        self.root = root
        self.config = config
        self.centroid_index = CentroidIndex(config.dim)
        self.version_map = VersionMap()
        self.stats = EngineStats()
        self._gen = 0
        self._lengths: dict[int, int] = {}  # pid → tuples, the Block Mapping's lengths
        self._buffer: list[tuple[int, Posting]] = []  # appends not yet written
        self._attach_rebuilder()
        os.makedirs(root, exist_ok=True)

    def _attach_rebuilder(self) -> None:
        self.rebuilder = LocalRebuilder(
            self, self.centroid_index, self.version_map, self.config, self.stats
        )

    # -- dataset versioning ----------------------------------------------
    @property
    def postings_path(self) -> str:
        return os.path.join(self.root, f"postings_v{self._gen}")

    def write_postings(self, df: DataFrame) -> None:
        """Write a full new dataset generation and switch to it."""
        self._gen += 1
        df.write.mode("overwrite").parquet(self.postings_path)

    def flush(self) -> None:
        """Write the buffered appends as one Parquet append (files only added)."""
        parts = [(pid, p) for pid, p in self._buffer if len(p)]
        self._buffer = []
        if not parts:
            return
        rows = Posting.concat([p for _, p in parts])
        pids = np.repeat([pid for pid, _ in parts], [len(p) for _, p in parts])
        pdf = rows_to_pdf(pids, rows.vids, rows.versions, rows.vecs)
        df = self.spark.createDataFrame(pdf, schema=POSTING_SCHEMA).coalesce(1)
        df.write.mode("append").parquet(self.postings_path)

    def postings_df(self) -> DataFrame:
        self.flush()
        return self.spark.read.schema(POSTING_SCHEMA).parquet(self.postings_path)

    # -- the Block Controller's posting calls (0 simulated µs) -----------
    def exists(self, pid: int) -> bool:
        return pid in self._lengths

    def length(self, pid: int) -> int:
        return self._lengths[pid]

    def get(self, pid: int) -> tuple[Posting, float]:
        postings, cost = self.get_many([pid])
        return postings[pid], cost

    def get_many(self, pids: list[int]) -> tuple[dict[int, Posting], float]:
        """Every row of the postings ``pids``, read in one Spark job."""
        if not pids:
            return {}, 0.0
        pdf = self.postings_df().where(F.col("pid").isin(pids)).toPandas()
        pdf = pdf.sort_values("pid", kind="stable")
        at = pdf["pid"].to_numpy()
        vids = pdf["vid"].to_numpy(np.int64)
        versions = pdf["version"].to_numpy().astype(np.int16)
        vecs = np.stack(pdf["vec"].to_numpy()) if len(pdf) else np.empty((0, self.config.dim))
        lo, hi = np.searchsorted(at, pids), np.searchsorted(at, pids, side="right")
        return {
            pid: Posting(vids[a:b], versions[a:b], vecs[a:b])
            for pid, a, b in zip(pids, lo.tolist(), hi.tolist())
        }, 0.0

    def put(self, pid: int, posting: Posting) -> float:
        self._buffer.append((pid, posting))
        self._lengths[pid] = len(posting)
        return 0.0

    def append(self, pid: int, tail: Posting) -> float:
        self._lengths[pid] += len(tail)
        self._buffer.append((pid, tail))
        return 0.0

    def delete(self, pid: int) -> float:
        del self._lengths[pid]
        return 0.0

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
        row per (pid, vid) — the Spark twin of ``LocalRebuilder.live``."""
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

    # -- live sizes (inspection; the schedule reads the driver's lengths) -
    def live_sizes(self) -> pd.DataFrame:
        """(pid, n_live) for every alive posting, including empty ones."""
        sizes = self.live_df().groupBy("pid").agg(F.count("*").alias("n_live")).toPandas()
        alive = pd.DataFrame({"pid": self.centroid_index.alive_ids.astype(np.int64)})
        out = alive.merge(sizes, on="pid", how="left").fillna({"n_live": 0})
        out["n_live"] = out["n_live"].astype(np.int64)
        return out

    # -- persistence of driver metadata (§4.4 snapshot analog) -----------
    def save_meta(self) -> None:
        """Commit the driver metadata (tmp file + ``os.replace``, so a crash
        leaves the old or the new record whole), then delete the dataset
        generations older than the one it records."""
        self.flush()
        path = os.path.join(self.root, "meta.pkl")
        with open(path + ".tmp", "wb") as fh:
            pickle.dump(
                {
                    "config": self.config,
                    "centroid_index": self.centroid_index,
                    "version_map": self.version_map,
                    "gen": self._gen,
                    "lengths": self._lengths,
                    "jobs": list(self.rebuilder.jobs),
                    "pending": self.rebuilder._pending,
                },
                fh,
            )
        os.replace(path + ".tmp", path)
        for name in os.listdir(self.root):
            m = re.fullmatch(r"postings_v(\d+)", name)
            if m and int(m.group(1)) < self._gen:
                shutil.rmtree(os.path.join(self.root, name))

    @classmethod
    def load(cls, spark: SparkSession, root: str) -> "SparkPostingStore":
        with open(os.path.join(root, "meta.pkl"), "rb") as fh:
            meta = pickle.load(fh)
        self = cls(spark, root, meta["config"])
        self.centroid_index = meta["centroid_index"]
        self.version_map = meta["version_map"]
        self._gen = meta["gen"]
        self._lengths = meta["lengths"]
        self._attach_rebuilder()
        self.rebuilder.jobs.extend(meta["jobs"])
        self.rebuilder._pending = meta["pending"]
        return self
