"""Experiment harness: run a system over an update workload (paper §5).

Adapters give every system the same interface (insert/delete/search with
simulated-latency returns, end-of-epoch ``maintain``, a DRAM model and
extra stats). ``replay`` is the one epoch loop every experiment feeds a
system through; ``measure_queries`` is the one query-set measurement.
``run_update_simulation`` replays a workload and collects the paper's
Fig. 7/9 time-series metrics — recall@K, search latency percentiles
(simulated ms), insert latency/throughput, memory — plus the §5.2.2 LIRE
statistics.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.baselines.diskann import FreshDiskANN
from repro.core.latency import LatencyModel
from repro.core.spfresh import SPFreshIndex
from repro.workloads import UpdateWorkload

if TYPE_CHECKING:
    import pandas as pd


class SPFreshAdapter:
    """Harness adapter for SPFresh / SPANN+ / ablation variants."""

    def __init__(self, index: SPFreshIndex, name: str = "SPFresh"):
        self.index = index
        self.name = name

    def insert_batch(self, vids: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        return self.index.insert_batch(vids, vecs)

    def delete_batch(self, vids: np.ndarray) -> np.ndarray:
        return np.asarray([self.index.delete(int(v)) for v in vids])

    def search_batch(self, queries: np.ndarray, k: int) -> tuple[list[np.ndarray], np.ndarray]:
        return self.index.search_batch(queries, k)

    def maintain(self) -> None:
        """Drain the Local Rebuilder queue (background work of the epoch)."""
        self.index.process_jobs()

    def memory_bytes(self) -> int:
        return self.index.memory_bytes()

    def extra_stats(self) -> dict:
        s = self.index.stats
        return {
            "splits": s.splits,
            "merges": s.merges,
            "reassign_evaluated": s.reassign_evaluated,
            "reassign_moved": s.reassign_moved,
            "rebalance_insert_frac": s.inserts_triggering_rebalance / max(1, s.inserts),
            "max_cascade_depth": s.max_cascade_depth,
            "n_postings": len(self.index.centroid_index),
        }

    def lire_stats(self) -> dict:
        """The paper's §5.2.2 LIRE statistics over the whole run."""
        s = self.index.stats
        return {
            "rebalance_insert_frac": s.inserts_triggering_rebalance / max(1, s.inserts),
            "splits": s.splits,
            "max_cascade_depth": s.max_cascade_depth,
            "merges": s.merges,
            "merge_frac_of_updates": s.merges / max(1, s.inserts + s.deletes),
            "avg_evaluated_per_reassign": s.reassign_evaluated / max(1, s.reassign_jobs),
            "avg_moved_per_reassign": s.reassign_moved / max(1, s.reassign_jobs),
        }


class DiskANNAdapter:
    """Harness adapter for the FreshDiskANN baseline.

    Latency model: searches pay one node-block read per main-graph hop at
    the configured beamwidth (paper: beamwidth 2) plus distance-compute
    time; inserts are in-memory delta-graph work (pure CPU). A
    streamingMerge within an epoch blocks a small deterministic fraction
    of that epoch's queries for ``merge_block_us`` (a search thread stuck
    behind the global rebuild, §5.2.2) and adds the rebuild working set to
    the DRAM model.
    """

    def __init__(
        self,
        index: FreshDiskANN,
        name: str = "DiskANN",
        *,
        beamwidth: int = 2,
        block_read_us: float = 90.0,
        merge_block_us: float = 20_000.0,
        merge_block_frac: float = 0.002,
    ):
        self.index = index
        self.name = name
        self.beamwidth = beamwidth
        self.block_read_us = block_read_us
        self.merge_block_us = merge_block_us
        self.merge_block_frac = merge_block_frac
        self.latency = LatencyModel()
        self._merged_this_epoch = False

    def insert_batch(self, vids: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        lats = []
        for v, x in zip(vids, vecs):
            cost = self.index.insert(int(v), x)
            lats.append(
                self.latency.base_us
                + self.latency.scan_us(cost.dist_comps, self.index.dim)
                + 25.0  # FreshDiskANN redo-log append (one block write)
            )
        return np.asarray(lats)

    def delete_batch(self, vids: np.ndarray) -> np.ndarray:
        for v in vids:
            self.index.delete(int(v))
        return np.full(len(vids), self.latency.base_us)

    def search_batch(self, queries: np.ndarray, k: int) -> tuple[list[np.ndarray], np.ndarray]:
        ids, lats = [], []
        n_blocked = int(np.ceil(len(queries) * self.merge_block_frac)) if self._merged_this_epoch else 0
        for i, q in enumerate(queries):
            res, main_cost, delta_cost = self.index.search(q, k)
            io = np.ceil(main_cost.hops / self.beamwidth) * self.block_read_us
            cpu = self.latency.scan_us(
                main_cost.dist_comps + delta_cost.dist_comps, self.index.dim
            )
            lat = self.latency.base_us + cpu + io
            if i < n_blocked:  # query thread stuck behind the global merge
                lat += self.merge_block_us
            ids.append(np.asarray(res, dtype=np.int64))
            lats.append(lat)
        return ids, np.asarray(lats)

    def maintain(self) -> None:
        self._merged_this_epoch = False
        if self.index.needs_merge():
            self.index.streaming_merge()
            self._merged_this_epoch = True

    def memory_bytes(self) -> int:
        mem = self.index.memory_bytes()
        if self._merged_this_epoch:
            # streamingMerge working set: a second copy of the graph +
            # full-precision vectors of the merge batch (paper: +60 GB).
            mem += self.index.main.memory_bytes() + len(self.index._vecs) * self.index.dim * 4
        return mem

    def extra_stats(self) -> dict:
        return {
            "merges": self.index.stats.merges,
            "merged_this_epoch": self._merged_this_epoch,
        }


@dataclass
class SimulationResult:
    name: str
    timeseries: pd.DataFrame
    final_stats: dict


def _percentiles(lat_us: np.ndarray) -> dict:
    q = np.quantile(lat_us, [0.5, 0.9, 0.95, 0.99, 0.999]) / 1000.0
    return {
        "p50_ms": q[0], "p90_ms": q[1], "p95_ms": q[2], "p99_ms": q[3], "p999_ms": q[4]
    }


def recall_at_k(results: list[np.ndarray], gt: np.ndarray, k: int) -> float:
    """Mean RecallK@K (§2.1) over the query set."""
    hits = [len(np.intersect1d(r[:k], g)) / k for r, g in zip(results, gt)]
    return float(np.mean(hits))


def measure_queries(system, workload: UpdateWorkload, k: int = 10) -> tuple[float, np.ndarray]:
    """Run the workload's query set; returns (recall@k against exact ground
    truth over the *current live set*, per-query simulated latency µs)."""
    _, gt = workload.ground_truth(k)
    results, lats = system.search_batch(workload.query_vecs, k)
    return recall_at_k(results, gt, k), lats


def replay(
    system,
    workload: UpdateWorkload,
    on_epoch: Callable[[int, np.ndarray], None] | None = None,
) -> None:
    """Feed every epoch to ``system`` under the paper's daily protocol
    (§5.1): delete, insert, then the background work those updates cause.

    After epoch ``i`` (1-based) is applied to the workload's live set,
    ``on_epoch(i, insert_latencies)`` receives that epoch's per-insert
    simulated latencies.
    """
    for i, epoch in enumerate(workload.epochs, start=1):
        system.delete_batch(epoch.delete_vids)
        ins_lats = system.insert_batch(epoch.insert_vids, epoch.insert_vecs)
        system.maintain()
        workload.apply(epoch)
        if on_epoch is not None:
            on_epoch(i, ins_lats)


def run_update_simulation(
    system,
    workload: UpdateWorkload,
    *,
    k: int = 10,
    measure_every: int = 5,
) -> SimulationResult:
    """Replay the workload through ``system``; returns per-epoch metrics.

    Every ``measure_every`` epochs (and at epoch 0 / the last epoch) the
    harness runs the query set, computes recall against exact ground
    truth over the *current live set*, and snapshots resource stats.
    """
    import pandas as pd

    rows = []

    def measure(epoch: int, insert_lats: np.ndarray | None = None) -> None:
        if epoch % measure_every and epoch != len(workload.epochs):
            return
        rec, lats = measure_queries(system, workload, k)
        row = {"epoch": epoch, "recall": rec, **_percentiles(lats)}
        if insert_lats is not None and len(insert_lats):
            row["insert_avg_ms"] = float(insert_lats.mean()) / 1000.0
            row["insert_qps_per_thread"] = 1e6 / float(insert_lats.mean())
        row["mem_mb"] = system.memory_bytes() / 1e6
        row.update(system.extra_stats())
        rows.append(row)

    measure(0)
    replay(system, workload, measure)
    return SimulationResult(
        name=getattr(system, "name", type(system).__name__),
        timeseries=pd.DataFrame(rows),
        final_stats=system.extra_stats(),
    )


def render_table(df: pd.DataFrame, *, floatfmt: str = "{:.3f}") -> str:
    """Plain-text table for jobs' stdout and EXPERIMENTS.md."""
    show = df.copy()
    for c in show.columns:
        if show[c].dtype.kind == "f":
            show[c] = show[c].map(lambda v: floatfmt.format(v))
    return show.to_string(index=False)
