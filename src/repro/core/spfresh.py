"""The SPFresh engine: Updater + Local Rebuilder + Searcher (paper §4).

Single-node reference implementation of the LIRE protocol over the
simulated Block Controller. The *Updater* appends a new vector to its
nearest posting(s) and tombstones deletes in the version map; when a
posting exceeds the split limit it enqueues a split job. The *Local
Rebuilder* drains a job queue of split / merge / reassign jobs —
off the foreground critical path, as the paper's feed-forward pipeline —
applying the two LIRE necessary conditions to find the minimal reassign
set and using version-CAS to execute reassignments. The *Searcher*
probes the nprobe nearest postings via ParallelGET, filters stale
replicas, and triggers merges for undersized postings.

Every rebalancing decision (build layout, closure assignment, split,
reassign scope, condition screening, the final NPA check with CAS, merge
target) is made by the planner in :mod:`repro.core.lire`; this engine
keeps the storage and the job queue.

Feature flags reproduce the paper's ablations: ``rebalance=False`` is
the SPANN+ baseline (append-only + GC), ``reassign=False`` the
"in-place + split" variant of Fig. 10.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.blockstore.controller import BlockController, Posting
from repro.blockstore.ssd import SimulatedSSD
from repro.core import lire
from repro.core.centroid_index import CentroidIndex
from repro.core.distances import pairwise_sq_l2, topk_indices
from repro.core.latency import LatencyModel
from repro.core.version_map import VersionMap

# The traced run of perfbench/core_bench.py wraps these names on this
# module. The planner makes these calls now, so the wrappers count none.
from repro.core.clustering import balanced_two_means  # noqa: F401
from repro.core.lire import closure_assign, condition_one, condition_two  # noqa: F401


@dataclass
class SPFreshConfig:
    """Engine knobs; defaults are the paper's, scaled (DESIGN.md §5)."""

    dim: int
    split_limit: int = 96  # paper's posting length limit, scaled
    merge_limit: int = 8  # minimum live length before merge
    reassign_range: int = 8  # nearby postings checked after a split (paper: 64)
    nprobe: int = 8  # postings probed per query (paper: 64)
    max_replicas: int = 4  # closure replication cap (paper avg 5.47 replicas)
    closure_eps: float = 0.10
    rebalance: bool = True  # False → SPANN+ (append-only + GC)
    reassign: bool = True  # False → "in-place + split" ablation
    merge: bool = True
    seed: int = 0


@dataclass
class EngineStats:
    """Counters behind the paper's §5.2.2 LIRE statistics."""

    inserts: int = 0
    deletes: int = 0
    splits: int = 0
    gc_rewrites: int = 0
    merges: int = 0
    inserts_triggering_rebalance: int = 0
    reassign_jobs: int = 0
    reassign_evaluated: int = 0
    reassign_moved: int = 0
    reassign_aborted_cas: int = 0
    max_cascade_depth: int = 0
    background_io_us: float = 0.0
    background_cpu_us: float = 0.0
    foreground_io_us: float = 0.0


class SPFreshIndex:
    """Cluster-based updatable ANN index with in-place LIRE rebalancing."""

    def __init__(self, config: SPFreshConfig, ssd: SimulatedSSD | None = None):
        self.config = config
        self.ssd = ssd or SimulatedSSD()
        self.controller = BlockController(self.ssd, config.dim)
        self.centroid_index = CentroidIndex(config.dim)
        self.version_map = VersionMap()
        self.latency = LatencyModel()
        self.jobs: deque[tuple] = deque()
        self._pending: set[tuple[str, int]] = set()  # dedupe split/gc/merge jobs
        self.stats = EngineStats()
        self._vecs: dict[int, np.ndarray] = {}  # vid → raw vector; only tests and perfbench read it

    # ------------------------------------------------------------------
    # Build (SPANN hierarchical balanced clustering + closure assignment)
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, vecs: np.ndarray, vids: np.ndarray, config: SPFreshConfig, ssd: SimulatedSSD | None = None
    ) -> "SPFreshIndex":
        """Build a balanced index from scratch (the paper's initial state)."""
        self = cls(config, ssd)
        vecs = np.asarray(vecs, dtype=np.float32)
        vids = np.asarray(vids, dtype=np.int64)
        centroids, rows, cols = lire.build_layout(vecs, config)
        for vid, vec in zip(vids, vecs):
            self.version_map.add(int(vid))
            self._vecs[int(vid)] = vec
        # rows grouped by centroid column, in row order within a posting
        order = np.argsort(cols, kind="stable")
        bounds = np.searchsorted(cols[order], np.arange(len(centroids) + 1))
        for c, centroid in enumerate(centroids):
            r = rows[order[bounds[c] : bounds[c + 1]]]
            posting = Posting(vids[r], np.zeros(len(r), dtype=np.int16), vecs[r])
            self.controller.put(self.centroid_index.add(centroid), posting)
        return self

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _live(self, posting: Posting) -> Posting:
        """Drop stale tuples and duplicate replicas within one posting."""
        if not len(posting):
            return posting
        stale = self.version_map.is_stale(posting.vids, posting.versions)
        live = posting.take(~stale)
        if len(live):
            _, first = np.unique(live.vids, return_index=True)
            live = live.take(np.sort(first))
        return live

    def _maybe_enqueue_split(self, pid: int, depth: int) -> None:
        if not self.controller.exists(pid):
            return
        length = self.controller.length(pid)
        if length <= self.config.split_limit:
            return
        if self.config.rebalance:
            if ("split", pid) not in self._pending:
                self._pending.add(("split", pid))
                self.jobs.append(("split", pid, depth))
        elif length % self.config.split_limit == 0:
            # SPANN+ has no split: only periodic background GC rewrites that
            # prune stale replicas; postings may grow without bound.
            if ("gc", pid) not in self._pending:
                self._pending.add(("gc", pid))
                self.jobs.append(("gc", pid))

    # ------------------------------------------------------------------
    # Updater (foreground, paper §4.1)
    # ------------------------------------------------------------------
    def insert(self, vid: int, vec: np.ndarray) -> float:
        """Insert one vector; returns simulated foreground latency (µs)."""
        vec = np.asarray(vec, dtype=np.float32)
        self.version_map.add(vid)
        self._vecs[vid] = vec
        _, pids = lire.closure_pids(self.centroid_index, vec[None, :], self.config)
        io = 0.0
        tail = Posting(
            np.asarray([vid], dtype=np.int64),
            np.zeros(1, dtype=np.int16),
            vec[None, :],
        )
        before_jobs = len(self.jobs)
        for pid in pids:
            io += self.controller.append(int(pid), tail)
            self._maybe_enqueue_split(int(pid), 0)
        if len(self.jobs) > before_jobs:
            self.stats.inserts_triggering_rebalance += 1
        self.stats.inserts += 1
        self.stats.foreground_io_us += io
        return self.latency.insert_us(
            n_centroids_compared=len(self.centroid_index), dim=self.config.dim, io_us=io
        )

    def insert_batch(self, vids: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """Vectorised insert; returns per-vector simulated latency (µs)."""
        return np.asarray([self.insert(int(v), x) for v, x in zip(vids, vecs)])

    def delete(self, vid: int) -> float:
        """Tombstone a vector (O(1), in-memory only); returns latency µs."""
        self.version_map.delete(vid)
        self._vecs.pop(vid, None)
        self.stats.deletes += 1
        return self.latency.base_us

    # ------------------------------------------------------------------
    # Searcher (paper §3.1 / §4.1)
    # ------------------------------------------------------------------
    def search(self, q: np.ndarray, k: int) -> tuple[np.ndarray, float]:
        """Top-k vector ids for one query; returns (ids, simulated µs)."""
        q = np.asarray(q, dtype=np.float64)
        pids = self.centroid_index.search(q, self.config.nprobe)
        postings, io = self.controller.get_many([int(p) for p in pids])
        self.stats.foreground_io_us += io
        scanned = 0
        all_vids: list[np.ndarray] = []
        all_d: list[np.ndarray] = []
        for pid, posting in postings.items():
            scanned += len(posting)
            live = self._live(posting)
            if not len(live):
                continue
            d = pairwise_sq_l2(q[None, :], live.vecs)[0]
            all_vids.append(live.vids)
            all_d.append(d)
            if (
                self.config.rebalance
                and self.config.merge
                and len(live) < self.config.merge_limit
                and len(self.centroid_index) > 1
                and ("merge", pid) not in self._pending
            ):
                self._pending.add(("merge", pid))
                self.jobs.append(("merge", pid))
        lat = self.latency.search_us(
            n_centroids_compared=len(self.centroid_index),
            vectors_scanned=scanned,
            dim=self.config.dim,
            io_us=io,
        )
        if not all_vids:
            return np.empty(0, dtype=np.int64), lat
        vids = np.concatenate(all_vids)
        d = np.concatenate(all_d)
        # dedupe replicas: keep the smallest distance per vid
        order = np.lexsort((vids, d))
        vids, d = vids[order], d[order]
        _, first = np.unique(vids, return_index=True)
        vids, d = vids[first], d[first]
        return vids[topk_indices(d, k)], lat

    def search_batch(self, qs: np.ndarray, k: int) -> tuple[list[np.ndarray], np.ndarray]:
        ids, lats = [], []
        for q in qs:
            r, l = self.search(q, k)
            ids.append(r)
            lats.append(l)
        return ids, np.asarray(lats)

    # ------------------------------------------------------------------
    # Local Rebuilder (background, paper §4.2)
    # ------------------------------------------------------------------
    def process_jobs(self, max_jobs: int | None = None) -> int:
        """Drain the rebuild job queue; returns the number of jobs run."""
        done = 0
        while self.jobs and (max_jobs is None or done < max_jobs):
            job = self.jobs.popleft()
            kind = job[0]
            if kind in ("split", "gc", "merge"):
                self._pending.discard((kind, job[1]))
            if kind == "split":
                self._split(job[1], job[2])
            elif kind == "gc":
                self._gc(job[1])
            elif kind == "merge":
                self._merge(job[1])
            elif kind == "reassign":
                self._reassign(*job[1:])
            done += 1
        return done

    def _gc(self, pid: int) -> None:
        """SPANN+ path: rewrite a posting dropping stale tuples, no split."""
        if not self.controller.exists(pid):
            return
        posting, io = self.controller.get(pid)
        live = self._live(posting)
        io += self.controller.put(pid, live)
        self.stats.gc_rewrites += 1
        self.stats.background_io_us += io

    def _split(self, pid: int, depth: int) -> None:
        if not self.controller.exists(pid):
            return
        posting, io = self.controller.get(pid)
        live = self._live(posting)
        cfg = self.config
        if len(live) <= cfg.split_limit:
            # garbage collection alone brought it under the limit (§4.2.1)
            io += self.controller.put(pid, live)
            self.stats.gc_rewrites += 1
            self.stats.background_io_us += io
            return
        order, centers, labels = lire.split(live.vids, live.vecs, cfg)
        live = live.take(order)
        old_centroid = self.centroid_index.centroid(pid).copy()
        new_pids = (self.centroid_index.add(centers[0]), self.centroid_index.add(centers[1]))
        for c, npid in zip((0, 1), new_pids):
            io += self.controller.put(npid, live.take(labels == c))
        self.centroid_index.remove(pid)
        self.controller.delete(pid)
        self.stats.splits += 1
        self.stats.max_cascade_depth = max(self.stats.max_cascade_depth, depth)
        self.stats.background_io_us += io
        # balanced 2-means cost model: n_iter Lloyd passes over the posting
        self.stats.background_cpu_us += self.latency.scan_us(8 * len(live), cfg.dim)
        if cfg.reassign:
            self.jobs.append(("reassign", old_centroid, new_pids, centers, depth))
        for npid in new_pids:
            self._maybe_enqueue_split(npid, depth + 1)

    def _merge(self, pid: int) -> None:
        if not self.controller.exists(pid) or not self.config.rebalance or not self.config.merge:
            return
        posting, io = self.controller.get(pid)
        live = self._live(posting)
        target = None
        if len(live) < self.config.merge_limit:
            target = lire.merge_target(self.centroid_index, pid)
        if target is None:
            self.stats.background_io_us += io
            return
        # delete the shorter posting + its centroid, append its vectors (§3.2)
        self.centroid_index.remove(pid)
        self.controller.delete(pid)
        if len(live):
            io += self.controller.append(target, live)
        self.stats.merges += 1
        self.stats.background_io_us += io
        # Reassign check for moved vectors only — no neighbor check (§4.2.1)
        if self.config.reassign and len(live):
            self.stats.reassign_evaluated += len(live)
            self._move(live, np.full(len(live), target, dtype=np.int64), depth=0)
        self._maybe_enqueue_split(target, 1)

    def _reassign(
        self,
        old_centroid: np.ndarray,
        new_pids: tuple[int, int],
        new_centroids: np.ndarray,
        depth: int,
    ) -> None:
        cfg = self.config
        self.stats.reassign_jobs += 1
        # the two split postings (condition 1), then their neighbors (condition 2)
        split_alive = [p for p in new_pids if self.controller.exists(p)]
        scope = lire.reassign_scope(self.centroid_index, old_centroid, new_pids, cfg.reassign_range)
        nbr = [p for p in scope if self.controller.exists(p)]
        candidates: list[Posting] = []
        cand_from: list[np.ndarray] = []
        for pids in (split_alive, nbr):
            postings, io = self.controller.get_many(pids)
            self.stats.background_io_us += io
            for pid, posting in postings.items():
                live = self._live(posting)
                if not len(live):
                    continue
                self.stats.reassign_evaluated += len(live)
                mask = lire.reassign_candidate_mask(
                    live.vecs, old_centroid, new_centroids, in_split_posting=pid in new_pids
                )
                if mask.any():
                    candidates.append(live.take(np.flatnonzero(mask)))
                    cand_from.append(np.full(int(mask.sum()), pid, dtype=np.int64))
        if not candidates:
            return
        evaluated = self._move(Posting.concat(candidates), np.concatenate(cand_from), depth)
        self.stats.background_cpu_us += self.latency.scan_us(evaluated, cfg.dim)

    def _move(self, cands: Posting, cur_pids: np.ndarray, depth: int) -> int:
        """Plan the candidates' moves, then batch them into one append per
        target posting — the Local Rebuilder amortizes the last-block RMW
        across all vectors landing in the same posting (§4.2.2). Returns
        the number of vectors the plan checked."""
        plan = lire.plan_moves(
            cands.vids, cands.versions, cands.vecs, cur_pids,
            self.centroid_index, self.version_map, self.config,
        )
        self.stats.reassign_moved += plan.moved
        self.stats.reassign_aborted_cas += plan.aborted
        moved = Posting(plan.vids, plan.versions.astype(np.int16), plan.vecs)
        targets, first = np.unique(plan.pids, return_index=True)
        io = 0.0
        for pid in targets[np.argsort(first)].tolist():
            io += self.controller.append(pid, moved.take(np.flatnonzero(plan.pids == pid)))
            self._maybe_enqueue_split(pid, depth + 1)
        self.stats.background_io_us += io
        return plan.evaluated

    # ------------------------------------------------------------------
    # Introspection / resource model
    # ------------------------------------------------------------------
    def posting_lengths(self) -> dict[int, int]:
        """On-disk tuple counts per posting (incl. stale replicas)."""
        return {pid: self.controller.length(pid) for pid in self.controller.posting_ids}

    def memory_bytes(self) -> int:
        """Modelled DRAM: centroid index + version map + block mapping."""
        return (
            self.centroid_index.memory_bytes()
            + self.version_map.memory_bytes()
            + self.controller.memory_bytes()
        )
