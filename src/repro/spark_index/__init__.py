"""Distributed-dataflow SPFresh over Spark DataFrames + Parquet.

This package is the scale-out implementation of the LIRE protocol mapped
onto a datalake layout (DESIGN.md §3). The Spark engine is a
:class:`~repro.core.spfresh.SPFreshIndex` whose posting store is a
Parquet dataset ``(pid, vid, version, vec)`` on the local filesystem (the
object-store stand-in), which the driver reads, appends to and compacts
with Arrow. The Updater, the Local Rebuilder's job queue, the one live
filter and the Searcher's read step and scan step are the core engine's;
the two engines differ only in storage and in where the scan runs, and
maintenance launches no Spark job. A search navigates once, on the
driver, as the core Searcher does, and reads each probed posting once;
Spark then runs the core's scan of that read's live rows in one job, a
slice of queries per task, so its workers import :mod:`repro`.

Modules: :mod:`store` (the Parquet posting store behind the Block
Controller's posting calls, holding storage state only), :mod:`engine`
(build, the insert batch's Parquet file, the metadata commit and load,
the live rows of the whole store, live sizes, compaction and
``rebalance``), :mod:`search` (the driver's read step, then the core's
scan of its live rows in one ``mapInArrow`` job, with a DuckDB SQL twin
for the oracle).
"""
from repro.spark_index.store import SparkPostingStore

__all__ = ["SparkPostingStore"]
