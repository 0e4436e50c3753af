"""Distributed-dataflow SPFresh over Spark DataFrames + Parquet.

This package is the scale-out implementation of the LIRE protocol mapped
onto a datalake layout (DESIGN.md §3). The Spark engine is a
:class:`~repro.core.spfresh.SPFreshIndex` whose posting store is a
Parquet dataset ``(pid, vid, version, vec)`` on the local filesystem (the
object-store stand-in), which the driver reads and appends to with Arrow
(no posting call is a Spark job) and Spark scans and compacts. The
Updater, the Local Rebuilder's job queue and the Searcher's read step are
the core engine's, run on the driver over that store; the two engines
differ only in storage and execution. A search navigates once, on the
driver, as the core Searcher does, and reads each probed posting once;
Spark then scans the live rows of that read and ranks the batch's top-k
as a DataFrame plan.

Modules: :mod:`store` (the Parquet posting store behind the Block
Controller's posting calls, holding storage state only), :mod:`engine`
(build, the insert batch's Parquet file, the metadata commit and load,
the live view as DataFrames, compaction and ``rebalance``), :mod:`search`
(the driver's read step, then the scan of its live rows and the top-k as
a DataFrame plan, with a DuckDB SQL twin for the oracle).
"""
from repro.spark_index.store import SparkPostingStore

__all__ = ["SparkPostingStore"]
