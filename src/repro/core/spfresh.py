"""The SPFresh engine: Updater + Local Rebuilder + Searcher (paper §4).

Single-node reference implementation of the LIRE protocol: one
:class:`SPFreshIndex` owns the centroid index, the version map, the job
queue, the config and a posting store — the simulated Block Controller
by default, or the Spark engine's Parquet store (:mod:`repro.spark_index`),
so both engines share one Updater, one job queue and one schedule, and
differ only in storage. It holds no vector in memory, only the paper's
state (§4). The *Updater* registers, copies and prices an insert batch
once, appends each new vector to its nearest posting(s), and tombstones
deletes in the version map. The *Local Rebuilder*
(:meth:`SPFreshIndex.process_jobs`) drains a job queue of
split / merge / reassign jobs — off the foreground critical path, as the
paper's feed-forward pipeline. Appends that leave a posting over the
split limit queue a split job; a split job garbage-collects the posting
and splits it only if it is still over the limit, then queues a reassign
job. A reassign job fetches the split postings and their neighbours in
one batched read, filters stale replicas once over all of them, screens
every live row with one call of the two LIRE necessary conditions, and
uses version-CAS to execute the reassignments it plans. The *Searcher*
probes the nprobe nearest postings via ParallelGET, filters stale
replicas, and queues a merge job for every probed posting with fewer
than ``merge_limit`` live tuples. It runs a batch of queries a slice at
a time: a read step (:meth:`SPFreshIndex.probe`: one navigation GEMM,
one batched ParallelGET that returns the distinct postings' rows as one
flat, read-only batch with each row's cached squared norm, one
staleness filter over that batch and the merge trigger), then the scan
step (:func:`scan_topk`: one distance GEMM over the distinct live vids,
columns from a dense mark table over the vid range, norms from the
batch, and one exact top-k in ``(distance, vid)`` order). The Spark
search runs the read step once per batch, then this scan step in one
Spark task per slice.

Every rebalancing decision (build layout, closure assignment, split,
reassign scope, condition screening, the final NPA check with CAS, merge
target) is made by the planner in :mod:`repro.core.lire`.

Feature flags reproduce the paper's ablations: ``rebalance=False`` is
the SPANN+ baseline (append-only; the split job runs with its split step
off, so it only garbage-collects), ``reassign=False`` the
"in-place + split" variant of Fig. 10.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.blockstore.controller import BlockController, Posting, PostingBatch
from repro.blockstore.ssd import SimulatedSSD
from repro.core import lire
from repro.core.centroid_index import CentroidIndex
from repro.core.distances import pairwise_sq_l2, topk_per_row
from repro.core.latency import LatencyModel
from repro.core.version_map import VersionMap

# The traced run of perfbench/core_bench.py wraps these names on this
# module. The planner and the batched top-k make these calls now, so the
# wrappers count none.
from repro.core.clustering import balanced_two_means  # noqa: F401
from repro.core.distances import topk_indices  # noqa: F401
from repro.core.lire import closure_assign, condition_one, condition_two  # noqa: F401


# Queries searched together: bounds a slice's queries × vids distance matrix.
# A slice is also the unit of one Spark search task (repro.spark_index.search).
SEARCH_SLICE = 8


def scan_topk(
    qs: np.ndarray, slot: np.ndarray, live: np.ndarray, n_live: np.ndarray,
    rows: Posting, norms: np.ndarray, k: int,
) -> list[np.ndarray]:
    """The Searcher's scan step: each query's top-k vids in ``(distance,
    vid)`` order over the live rows its probes hold. ``slot[i, j]`` is the
    place of query i's j-th probe among a read's postings, ``(live,
    n_live)`` the read's ``live_rows``, ``rows`` and ``norms`` its rows.
    The GEMM's columns are the distinct vids these probes hold."""
    # each query's live rows (places in ``live``), posting by posting in navigation order
    lens = n_live[slot].ravel()
    begin = np.cumsum(n_live) - n_live
    places = np.repeat(begin[slot].ravel() - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
    at = live[places]  # their positions in ``rows``
    query = np.repeat(np.arange(slot.size) // slot.shape[1], lens)
    # one column per distinct held vid, in vid order, from a mark table over
    # the vid range: every replica of a vid stores the same vector
    held = rows.vids[at]
    mark = np.zeros(held.max(initial=-1) + 1, dtype=bool)
    mark[held] = True
    cols = np.flatnonzero(mark)
    col = (np.cumsum(mark) - 1)[held]
    rep = np.empty(len(cols), dtype=np.int64)
    rep[col] = at
    y = np.take(rows.vecs, rep, axis=0).astype(np.float64)
    d = pairwise_sq_l2(qs, y, y_norms=norms[rep])
    cells = query * len(cols) + col  # flat places in ``d``
    masked = np.full(d.shape, np.inf)  # +inf: no posting of the query holds the vid
    masked.reshape(-1)[cells] = d.reshape(-1)[cells]
    r, c = topk_per_row(masked, k)
    return np.split(cols[c], np.searchsorted(r, np.arange(1, len(qs))))


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
    # False → "in-place + split" ablation; no effect without the rebalancer
    reassign: bool = True
    seed: int = 0


@dataclass
class EngineStats:
    """Counters behind the paper's §5.2.2 LIRE statistics, in
    ``SPFreshIndex.stats`` on both engines."""

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

    def __init__(self, config: SPFreshConfig, store: BlockController | None = None):
        self.config = config
        # the posting store: any object with the Block Controller's posting
        # calls; the Spark engine passes its Parquet store
        self.controller = store if store is not None else BlockController(SimulatedSSD(), config.dim)
        self.centroid_index = CentroidIndex(config.dim)
        self.version_map = VersionMap()
        self.latency = LatencyModel()
        self.stats = EngineStats()
        self.jobs: deque[tuple] = deque()  # the Local Rebuilder's FIFO queue
        self._pending: set[tuple[str, int]] = set()  # dedupe split/merge jobs

    # Only the traced run of perfbench/core_bench.py reads this, as
    # ``len(idx._vecs)`` for ``ssd.space_amp``: the registered, undeleted vids.
    @property
    def _vecs(self) -> np.ndarray:
        vids, _, deleted = self.version_map.entries()
        return vids[~deleted]

    @property
    def ssd(self) -> SimulatedSSD:
        """The simulated device under the default Block Controller."""
        return self.controller.ssd

    def _vectors(self, vids: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """``vecs`` as float32 rows; raises ``ValueError`` unless they are
        ``len(vids)`` rows of ``config.dim`` values."""
        vecs = np.asarray(vecs, dtype=np.float32)
        if vecs.shape != (len(vids), self.config.dim):
            raise ValueError(f"vecs of shape {vecs.shape}, not ({len(vids)}, {self.config.dim})")
        return vecs

    # ------------------------------------------------------------------
    # Build (SPANN hierarchical balanced clustering + closure assignment)
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, vecs: np.ndarray, vids: np.ndarray, config: SPFreshConfig,
        store: BlockController | None = None,
    ) -> "SPFreshIndex":
        """Build a balanced index from scratch (the paper's initial state)
        into ``store``, an empty posting store (default: a fresh one): the
        planner's build layout (§3.1), one posting per centroid, its rows
        in input order. Raises ``ValueError``, registering no vid, unless
        ``vecs`` is ``len(vids)`` rows of ``config.dim`` values."""
        self = cls(config, store)
        vids = np.asarray(vids, dtype=np.int64)
        vecs = self._vectors(vids, vecs)
        centroids, rows, cols = lire.build_layout(vecs, config)
        self.version_map.add_many(vids)
        # rows grouped by centroid column, in row order within a posting
        order = np.argsort(cols, kind="stable")
        bounds = np.searchsorted(cols[order], np.arange(len(centroids) + 1))
        for c, centroid in enumerate(centroids):
            r = rows[order[bounds[c] : bounds[c + 1]]]
            posting = Posting(vids[r], np.zeros(len(r), dtype=np.int16), vecs[r])
            self.controller.put(self.centroid_index.add(centroid), posting)
        return self

    # ------------------------------------------------------------------
    # Updater (foreground, paper §4.1)
    # ------------------------------------------------------------------
    def insert(self, vid: int, vec: np.ndarray) -> float:
        """Insert one vector, a batch of one; returns simulated foreground
        latency (µs)."""
        return float(self.insert_batch(np.asarray([vid]), np.asarray(vec)[None, :])[0])

    def insert_batch(self, vids: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """Insert vectors in arrival order; returns per-vector simulated
        latency (µs). One closure assignment navigates the whole batch:
        inserts append only, and only the Local Rebuilder moves centroids.
        Raises ``ValueError``, inserting none of the batch, when a vid is
        negative, registered already or occurs twice in it, or when
        ``vecs`` is not ``len(vids)`` rows of ``config.dim`` values."""
        vecs = self._vectors(vids, vecs)
        self.version_map.add_many(vids)
        # the engine's own copy: no stored tail may alias the caller's arrays
        own = Posting(np.array(vids, dtype=np.int64), np.zeros(len(vecs), np.int16), vecs.copy())
        rows, pids = lire.closure_pids(self.centroid_index, vecs, self.config)
        bounds = np.searchsorted(rows, np.arange(len(vecs) + 1))
        ios = np.empty(len(vecs))
        for i in range(len(vecs)):
            # append the vector to its closure postings, in arrival order
            tail, closure = own.slice(i, i + 1), pids[bounds[i] : bounds[i + 1]].tolist()
            io = 0.0
            for pid in closure:
                io += self.controller.append(pid, tail)
            self.inserted(closure)
            self.stats.foreground_io_us += io
            ios[i] = io
        return self.latency.insert_us(
            n_centroids_compared=len(self.centroid_index), dim=self.config.dim, io_us=ios
        )

    def delete(self, vid: int) -> float:
        """Tombstone a vector (O(1), in-memory only); returns latency µs.
        Deleting a deleted vid changes nothing; a vid never registered
        raises ``KeyError`` and changes nothing."""
        if not self.version_map.contains(vid):
            raise KeyError(f"vid {vid} is not registered")
        if not self.version_map.is_deleted(vid):
            self.version_map.delete(vid)
            self.stats.deletes += 1
        return self.latency.base_us

    # ------------------------------------------------------------------
    # Searcher (paper §3.1 / §4.1)
    # ------------------------------------------------------------------
    def search(self, q: np.ndarray, k: int) -> tuple[np.ndarray, float]:
        """Top-k vector ids for one query; returns (ids, simulated µs)."""
        ids, lats = self.search_batch(np.asarray(q)[None, :], k)
        return ids[0], float(lats[0])

    def search_batch(self, qs: np.ndarray, k: int) -> tuple[list[np.ndarray], np.ndarray]:
        """Top-k vector ids per query row; returns (ids, simulated µs per query).

        The batch is searched in slices of ``SEARCH_SLICE`` queries, which
        bounds the memory of a slice's distance matrix whatever the batch
        size. Each query is charged as if it ran alone: its own ParallelGET
        of its nprobe postings and a scan of every tuple they hold.
        """
        qs = np.asarray(qs, dtype=np.float64)
        ids: list[np.ndarray] = []
        lats = []
        for lo in range(0, len(qs), SEARCH_SLICE):
            slice_ids, slice_lats = self._search_slice(qs[lo : lo + SEARCH_SLICE], k)
            ids += slice_ids
            lats.append(slice_lats)
        return ids, np.concatenate(lats) if lats else np.empty(0)

    def probe(
        self, qs: np.ndarray
    ) -> tuple[np.ndarray, PostingBatch, list[float], tuple[np.ndarray, np.ndarray]]:
        """The Searcher's read step: one navigation GEMM, one ParallelGET per
        query, all in one ``get_batch``, and one staleness filter over the
        batch, whose live counts go to the Local Rebuilder's merge trigger
        in first-seen order (query order, then navigation order). Returns
        each query's probe places (``slot[i, j]``: query i's j-th posting's
        place in the batch), the batch, each query's simulated I/O µs and
        the batch's ``live_rows``."""
        probed = self.centroid_index.search_batch(qs, self.config.nprobe)
        batch, ios = self.controller.get_batch(probed.tolist())
        for io in ios:
            self.stats.foreground_io_us += io
        rows = self.live_rows(batch.rows, batch.lens)
        self.read(batch.pids.tolist(), rows[1].tolist())
        place = np.empty(batch.pids.max(initial=-1) + 1, dtype=np.int64)
        place[batch.pids] = np.arange(len(batch))
        return place[probed], batch, ios, rows

    def _search_slice(self, qs: np.ndarray, k: int) -> tuple[list[np.ndarray], np.ndarray]:
        """One slice of :meth:`search_batch`: the read step (:meth:`probe`),
        then the scan step (:func:`scan_topk`)."""
        slot, batch, ios, (live, n_live) = self.probe(qs)
        lats = self.latency.search_us(
            n_centroids_compared=len(self.centroid_index),
            vectors_scanned=batch.lens[slot].sum(axis=1),
            dim=self.config.dim,
            io_us=np.asarray(ios),
        )
        return scan_topk(qs, slot, live, n_live, batch.rows, batch.norms, k), lats

    # ------------------------------------------------------------------
    # Local Rebuilder (background, paper §4.2)
    #
    # One FIFO queue of split, merge and reassign jobs over the posting
    # store's calls (§4.3): ``exists``, ``length``, ``get``, ``get_batch``,
    # ``put``, ``append`` and ``delete``, each returning simulated µs
    # (``get`` with the posting's rows, ``get_batch`` with one flat
    # ``PostingBatch`` of the distinct postings). A split or merge job
    # reads its posting with one ``get``; a reassign job reads the split
    # postings and their neighbours with one ``get_batch`` of two requests.
    # The Updater calls ``inserted`` after appending a vector, which queues
    # a split for each of its postings now over the limit; the Searcher
    # calls ``read`` with the live counts of the postings it read, which
    # queues a merge for each one under ``merge_limit``, empty ones
    # included. A split queues a reassign job, and the appends of a move or
    # a merge queue splits in turn (§3.4 cascades). ``_pending`` keeps a
    # posting's split or merge job queued at most once.
    # ------------------------------------------------------------------

    # -- the shared live filter -------------------------------------------
    def live(self, posting: Posting) -> Posting:
        """Drop stale tuples and duplicate replicas within one posting."""
        live, _ = self.live_rows(posting, np.array([len(posting)]))
        return posting.take(live)

    def live_rows(self, rows: Posting, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The live tuples of postings whose rows are concatenated in
        ``rows``, ``lens[i]`` of them for the i-th, found in one pass.

        A tuple is live if it is not stale and is the first replica of its
        vid within its posting. Returns the positions of the live tuples in
        ``rows`` (grouped by posting, in tuple order) and each posting's
        live count.
        """
        seg = np.repeat(np.arange(len(lens)), lens)
        live = np.flatnonzero(~self.version_map.is_stale(rows.vids, rows.versions))
        if len(live) > 1:
            # one key per (posting, vid); one stable sort puts each key's
            # replicas together in tuple order, and all but the first go
            key = (seg * (int(rows.vids.max()) + 1) + rows.vids)[live]
            order = np.argsort(key, kind="stable")
            ranked = key[order]
            later = order[1:][ranked[1:] == ranked[:-1]]
            if len(later):
                live = np.delete(live, later)
        return live, np.bincount(seg[live], minlength=len(lens))

    # -- triggers ---------------------------------------------------------
    def check_split(self, pid: int, depth: int) -> None:
        """Queue a split job for a posting over the split limit."""
        if not self.controller.exists(pid):
            return
        length = self.controller.length(pid)
        if length <= self.config.split_limit:
            return
        # SPANN+ runs the split job, GC only, each time a posting's length
        # reaches a multiple of the limit; its postings grow without bound.
        if not self.config.rebalance and length % self.config.split_limit:
            return
        if ("split", pid) not in self._pending:
            self._pending.add(("split", pid))
            self.jobs.append(("split", pid, depth))

    def inserted(self, pids: list[int]) -> None:
        """The Updater's call once a vector is appended to its closure
        postings ``pids``: check each for a split, and count the insert."""
        before = len(self.jobs)
        for pid in pids:
            self.check_split(pid, 0)
        if len(self.jobs) > before:
            self.stats.inserts_triggering_rebalance += 1
        self.stats.inserts += 1

    def read(self, pids: list[int], n_live: list[int]) -> None:
        """The Searcher's call with the live counts of the postings it read:
        queue a merge for each one under ``merge_limit``, in read order."""
        if not self.config.rebalance or len(self.centroid_index) <= 1:
            return
        for pid, n in zip(pids, n_live):
            if n < self.config.merge_limit and ("merge", pid) not in self._pending:
                self._pending.add(("merge", pid))
                self.jobs.append(("merge", pid))

    # -- jobs -------------------------------------------------------------
    def process_jobs(self, max_jobs: int | None = None) -> int:
        """Drain the job queue; returns the number of jobs run."""
        done = 0
        while self.jobs and (max_jobs is None or done < max_jobs):
            job = self.jobs.popleft()
            kind = job[0]
            if kind in ("split", "merge"):
                self._pending.discard((kind, job[1]))
            if kind == "split":
                self._split(job[1], job[2])
            elif kind == "merge":
                self._merge(job[1])
            elif kind == "reassign":
                self._reassign(*job[1:])
            done += 1
        return done

    def _split(self, pid: int, depth: int) -> None:
        """Garbage-collect the posting, then split it only if it is still
        over the limit (§4.2.1); SPANN+ never splits."""
        store, cfg = self.controller, self.config
        if not store.exists(pid):
            return
        posting, io = store.get(pid)
        live = self.live(posting)
        if len(live) <= cfg.split_limit or not cfg.rebalance:
            io += store.put(pid, live)
            self.stats.gc_rewrites += 1
            self.stats.background_io_us += io
            return
        order, centers, labels = lire.split(live.vids, live.vecs, cfg)
        live = live.take(order)
        old_centroid = self.centroid_index.centroid(pid).copy()
        new_pids = (self.centroid_index.add(centers[0]), self.centroid_index.add(centers[1]))
        for c, npid in zip((0, 1), new_pids):
            io += store.put(npid, live.take(labels == c))
        self.centroid_index.remove(pid)
        store.delete(pid)
        self.stats.splits += 1
        self.stats.max_cascade_depth = max(self.stats.max_cascade_depth, depth)
        self.stats.background_io_us += io
        # balanced 2-means cost model: n_iter Lloyd passes over the posting
        self.stats.background_cpu_us += self.latency.scan_us(8 * len(live), cfg.dim)
        if cfg.reassign:
            self.jobs.append(("reassign", old_centroid, new_pids, centers, depth))
        for npid in new_pids:
            self.check_split(npid, depth + 1)

    def _merge(self, pid: int) -> None:
        store = self.controller
        if not store.exists(pid) or not self.config.rebalance:
            return
        posting, io = store.get(pid)
        live = self.live(posting)
        target = None
        if len(live) < self.config.merge_limit:
            target = lire.merge_target(self.centroid_index, pid)
        if target is None:
            self.stats.background_io_us += io
            return
        # delete the shorter posting + its centroid, append its vectors (§3.2)
        self.centroid_index.remove(pid)
        store.delete(pid)
        if len(live):
            io += store.append(target, live)
        self.stats.merges += 1
        self.stats.background_io_us += io
        # Reassign check for moved vectors only — no neighbor check (§4.2.1)
        if self.config.reassign and len(live):
            self.stats.reassign_evaluated += len(live)
            self._move(live, np.full(len(live), target, dtype=np.int64), depth=0)
        self.check_split(target, 1)

    def _reassign(
        self,
        old_centroid: np.ndarray,
        new_pids: tuple[int, int],
        new_centroids: np.ndarray,
        depth: int,
    ) -> None:
        store, cfg = self.controller, self.config
        self.stats.reassign_jobs += 1
        # the two split postings (condition 1), then their neighbors (condition 2)
        split_alive = [p for p in new_pids if store.exists(p)]
        scope = lire.reassign_scope(self.centroid_index, old_centroid, new_pids, cfg.reassign_range)
        nbr = [p for p in scope if store.exists(p)]
        batch, ios = store.get_batch([split_alive, nbr])
        for io in ios:  # one at a time, in request order: the same float sums
            self.stats.background_io_us += io
        live, n_live = self.live_rows(batch.rows, batch.lens)
        self.stats.reassign_evaluated += len(live)
        if not len(live):
            return
        rows = batch.rows.take(live)
        cur_pids = np.repeat(batch.pids, n_live)
        mask = lire.reassign_candidate_mask(
            rows.vecs, old_centroid, new_centroids, np.isin(cur_pids, new_pids)
        )
        if not mask.any():
            return
        evaluated = self._move(rows.take(mask), cur_pids[mask], depth)
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
        # rows grouped by target with one stable sort, targets in first-seen order
        order = np.argsort(plan.pids, kind="stable")
        targets, first = np.unique(plan.pids, return_index=True)
        bounds = np.searchsorted(plan.pids[order], targets)
        ends = np.append(bounds[1:], len(order))
        io = 0.0
        for t in np.argsort(first).tolist():
            pid = int(targets[t])
            io += self.controller.append(pid, moved.take(order[bounds[t] : ends[t]]))
            self.check_split(pid, depth + 1)
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
