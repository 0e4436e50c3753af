"""Distributed-dataflow SPFresh over Spark DataFrames + Parquet.

This package is the scale-out implementation of the LIRE protocol mapped
onto a datalake layout (DESIGN.md §3). Spark is the posting store: postings
live as a Parquet dataset ``(pid, vid, version, vec)`` on the local
filesystem (the object-store stand-in), which Spark reads, appends to and
compacts. The centroid index, the version map and the posting lengths are
driver-resident in-memory structures, exactly like the paper's SPTAG
index, version map and Block Mapping. Maintenance is the core engine's
:class:`~repro.core.spfresh.LocalRebuilder`, planned on the driver over
this store, so both engines run one job queue. Spark is also the search
pipeline: batch top-k as a pure DataFrame plan.

Modules: :mod:`store` (Parquet posting store behind the Block Controller's
posting calls + driver metadata), :mod:`build` (initial balanced build),
:mod:`updater` (insert/delete batches), :mod:`rebalancer` (drain the job
queue, compact, commit), :mod:`search` (batch top-k as a pure DataFrame
pipeline with a DuckDB SQL twin for the oracle, and the Searcher's merge
trigger).
"""
from repro.spark_index.store import SparkPostingStore

__all__ = ["SparkPostingStore"]
