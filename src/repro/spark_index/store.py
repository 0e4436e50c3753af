"""Parquet posting store: the Spark engine's Block Controller (paper §4.3).

Postings are rows ``(pid, vid, version, vec)`` in a Parquet dataset on the
local filesystem (the object-store stand-in). Each posting's length stays
in driver memory, like the paper's Block Mapping. The store holds only
storage state; the centroid index, the version map and the job queue
belong to the :class:`~repro.core.spfresh.SPFreshIndex` that runs over it.

The store offers the Block Controller's posting calls, so the core's
Updater, Local Rebuilder and Searcher read step run over it unchanged;
each call returns 0 simulated µs:

- ``get_batch`` reads the distinct postings of a batch of requests in one
  Arrow read of the dataset on the driver, with no Spark job; ``get`` is
  its one-posting case;
- ``append`` buffers rows; :meth:`SparkPostingStore.flush` writes the
  buffer as one Parquet file with Arrow, before the next read of the
  dataset, at the end of an insert batch and before a metadata commit;
- ``put`` is an append plus a length reset. The Local Rebuilder puts only a
  posting's own live rows (GC) or a fresh pid (split), so the rows a put
  replaces are stale or duplicates: the live filter drops them, and
  compaction deletes them;
- ``delete`` drops the length; the pid's rows die with its centroid.

:meth:`SparkPostingStore.compact` writes the live rows, with Arrow, as the
only file of a new dataset generation, a ``postings_v{n}`` dir, and leaves
the old one untouched (copy-on-write at dataset granularity). It changes
no length: it is storage GC, which the schedule never sees. Every file is
written by Arrow, hidden and then renamed; Spark reads the dataset only
for ``postings_df``.
"""
from __future__ import annotations

import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.blockstore.controller import Posting

POSTING_SCHEMA = T.StructType(
    [
        T.StructField("pid", T.LongType(), False),
        T.StructField("vid", T.LongType(), False),
        T.StructField("version", T.IntegerType(), False),
        T.StructField("vec", T.ArrayType(T.DoubleType()), False),
    ]
)


def arrow_table(**cols: np.ndarray) -> pa.Table:
    """Equal-length numpy columns as one Arrow table, for a Parquet file or
    ``spark.createDataFrame``: a 1-D column keeps its dtype, a 2-D one
    becomes a list of doubles per row (Spark's ``array<double>``)."""

    def column(a: np.ndarray) -> pa.Array:
        if a.ndim == 1:
            return pa.array(a)
        return pa.FixedSizeListArray.from_arrays(a.astype(np.float64).ravel(), a.shape[1])

    return pa.table({name: column(np.asarray(a)) for name, a in cols.items()})


class SparkPostingStore:
    """Posting dataset generations, the append buffer and the per-pid
    lengths of the Spark SPFresh engine."""

    def __init__(self, spark: SparkSession, root: str, dim: int):
        self.spark = spark
        self.root = root
        self.dim = dim
        self._gen = 0
        self._lengths: dict[int, int] = {}  # pid → tuples, the Block Mapping's lengths
        self._buffer: list[tuple[int, Posting]] = []  # appends not yet written
        os.makedirs(root, exist_ok=True)

    def __getstate__(self) -> dict:
        """A metadata commit pickles the store without its Spark session,
        after a flush: its root, generation number and lengths."""
        return {k: v for k, v in self.__dict__.items() if k != "spark"}

    # -- dataset versioning ----------------------------------------------
    @property
    def postings_path(self) -> str:
        return os.path.join(self.root, f"postings_v{self._gen}")

    def _write(self, path: str, pids: np.ndarray, rows: Posting) -> None:
        """Write ``rows``, each in posting ``pids[i]``, with Arrow as one new
        Parquet file in ``path``, named by a fresh uuid so no reload reuses
        a name; it is written hidden, which both readers skip, then renamed,
        so a crash leaves no partial file."""
        table = arrow_table(
            pid=pids.astype(np.int64),
            vid=rows.vids.astype(np.int64),
            version=rows.versions.astype(np.int32),
            vec=rows.vecs,
        )
        os.makedirs(path, exist_ok=True)
        name = f"{uuid.uuid4().hex}.parquet"
        tmp = os.path.join(path, "." + name)
        pq.write_table(table, tmp)
        os.replace(tmp, os.path.join(path, name))

    def flush(self) -> None:
        """Write the buffered appends as one new file of the generation."""
        parts = [(pid, p) for pid, p in self._buffer if len(p)]
        self._buffer = []
        if parts:
            pids = np.repeat([pid for pid, _ in parts], [len(p) for _, p in parts])
            self._write(self.postings_path, pids, Posting.concat([p for _, p in parts]))

    def compact(self, pids: np.ndarray, rows: Posting) -> None:
        """Storage GC: write ``rows``, each in posting ``pids[i]`` and read
        from this generation after a flush, as the only file of the next
        generation, then switch to it. Whatever a crashed compaction left in
        that directory is removed first, and the switch comes after the
        rename, so a crash leaves the current generation in use. No length
        changes: the schedule never sees a compaction."""
        path = os.path.join(self.root, f"postings_v{self._gen + 1}")
        if os.path.exists(path):
            shutil.rmtree(path)
        self._write(path, pids, rows)
        self._gen += 1

    def postings_df(self) -> DataFrame:
        self.flush()
        return self.spark.read.schema(POSTING_SCHEMA).parquet(self.postings_path)

    # -- the Block Controller's posting calls (0 simulated µs) -----------
    def exists(self, pid: int) -> bool:
        return pid in self._lengths

    def length(self, pid: int) -> int:
        return self._lengths[pid]

    @property
    def posting_ids(self) -> list[int]:
        return list(self._lengths)

    def get(self, pid: int) -> tuple[Posting, float]:
        postings, (cost,) = self.get_batch([[pid]])
        return postings[pid], cost

    def get_batch(self, requests: list[list[int]]) -> tuple[dict[int, Posting], list[float]]:
        """Every row of the requested postings, in one Arrow read of the
        dataset on the driver (no Spark job). Each distinct posting is
        assembled once; returns the postings in first-seen order and 0.0 µs
        per request."""
        pids = list(dict.fromkeys(pid for r in requests for pid in r))
        costs = [0.0] * len(requests)
        if not pids:
            return {}, costs
        self.flush()
        table = pq.read_table(self.postings_path, filters=[("pid", "in", pids)]).sort_by("pid")
        at = table["pid"].to_numpy()
        vids = table["vid"].to_numpy()
        versions = table["version"].to_numpy().astype(np.int16)
        vecs = pc.list_flatten(table["vec"]).to_numpy().reshape(-1, self.dim)
        lo, hi = np.searchsorted(at, pids), np.searchsorted(at, pids, side="right")
        return {
            pid: Posting(vids[a:b], versions[a:b], vecs[a:b])
            for pid, a, b in zip(pids, lo.tolist(), hi.tolist())
        }, costs

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
