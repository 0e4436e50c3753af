"""LIRE maintenance of the Spark index (paper §4.2).

The Spark engine runs the core's :class:`~repro.core.spfresh.LocalRebuilder`
over its Parquet store: the Updater's appends queue split jobs and the
Spark search queues merge jobs, into the one job queue on the driver. A
job touches at most ``reassign_range + 2`` postings, so its planner math
runs on the driver, as the paper's single-node rebuilder does; Spark reads
and writes the postings. ``rebalance`` drains that queue after a batch of
foreground updates, then compacts the dataset if a job ran and commits the
driver metadata. Compaction rewrites the dataset keeping only live rows:
the storage GC of the rows that the jobs' puts, moves and merges left
stale.
"""
from __future__ import annotations

from repro.core.spfresh import EngineStats
from repro.spark_index.store import SparkPostingStore


def compact(store: SparkPostingStore) -> None:
    """Rewrite the dataset keeping only live rows (split-GC analog).

    The live DataFrame is resolved against the current dataset generation
    and written to the next one, so this is a pure Spark job — no data
    passes through the driver.
    """
    store.write_postings(store.live_df())


def rebalance(store: SparkPostingStore) -> EngineStats:
    """Drain the Local Rebuilder's job queue, compact if a job ran, then
    commit the driver metadata. Returns the store's ``EngineStats``, which
    count since the store was built or loaded, as the core engine's do.

    With ``config.rebalance`` off (SPANN+) the queue holds only the split
    job's GC, as on the core engine.
    """
    if store.rebuilder.run():
        compact(store)
    store.save_meta()
    return store.stats
