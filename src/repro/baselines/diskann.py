"""DiskANN / FreshDiskANN baseline: graph index + out-of-place updates.

The paper's strongest baseline (§5.1) is FreshDiskANN: a disk-resident
Vamana graph whose updates are handled *out of place* — inserts go to an
in-memory delta index, deletes to a tombstone set, and a periodic
``streamingMerge`` folds the delta into the main graph (delete
consolidation + patch inserts). We implement the actual algorithms:

- :class:`VamanaGraph`: incremental Vamana construction — GreedySearch
  (beam search with candidate list ``L``) and RobustPrune (``alpha``
  relaxation), with per-search hop/distance-comp counters that feed the
  disk latency model (each hop = one node-block read at beamwidth 2, as
  configured in the paper).
- :class:`FreshDiskANN`: main graph + delta :class:`VamanaGraph` +
  tombstones; ``streaming_merge`` runs FreshDiskANN's delete
  consolidation (reconnect neighbors of deleted nodes through
  RobustPrune) then inserts the delta vectors into the main graph.

Search recall decays between merges exactly as in the paper: tombstoned
vectors are filtered at result time while the graph slowly loses edge
quality through repeated consolidations.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.core.distances import pairwise_sq_l2, topk_indices


@dataclass
class SearchCost:
    hops: int = 0
    dist_comps: int = 0


class VamanaGraph:
    """In-memory Vamana graph with incremental insert and lazy delete."""

    def __init__(self, dim: int, *, R: int = 32, L: int = 64, alpha: float = 1.2, seed: int = 0):
        self.dim = dim
        self.R = R
        self.L = L
        self.alpha = alpha
        self._vecs = np.zeros((0, dim), dtype=np.float64)
        self._vids: list[int] = []
        self._pos: dict[int, int] = {}
        self._nbrs: list[list[int]] = []
        self._deleted: set[int] = set()  # tombstoned positions (still route)
        self._retired: set[int] = set()  # consolidated-away positions (unlinked)
        self._entry: int | None = None
        self._rng = np.random.default_rng(seed)

    # -- bookkeeping ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._vids) - len(self._deleted) - len(self._retired)

    def _dead(self, pos: int) -> bool:
        return pos in self._deleted or pos in self._retired

    @property
    def live_positions(self) -> list[int]:
        return [p for p in range(len(self._vids)) if not self._dead(p)]

    def contains(self, vid: int) -> bool:
        p = self._pos.get(vid)
        return p is not None and not self._dead(p)

    def _add_vec(self, vid: int, vec: np.ndarray) -> int:
        pos = len(self._vids)
        self._vecs = np.vstack([self._vecs, np.asarray(vec, dtype=np.float64)[None, :]])
        self._vids.append(vid)
        self._pos[vid] = pos
        self._nbrs.append([])
        return pos

    # -- core Vamana algorithms ------------------------------------------
    def greedy_search(
        self, q: np.ndarray, k: int, L: int | None = None, cost: SearchCost | None = None
    ) -> tuple[list[int], list[int]]:
        """Beam search; returns (top-k live positions, visited positions)."""
        L = L or self.L
        cost = cost if cost is not None else SearchCost()
        if self._entry is None:
            return [], []
        q = np.asarray(q, dtype=np.float64)
        start = self._entry
        d0 = float(pairwise_sq_l2(q[None, :], self._vecs[start][None, :])[0, 0])
        cost.dist_comps += 1
        # lazy-heap beam search: unexpanded min-heap + best-L max-heap
        dists: dict[int, float] = {start: d0}
        frontier: list[tuple[float, int]] = [(d0, start)]
        best: list[tuple[float, int]] = [(-d0, start)]
        expanded: set[int] = set()
        visited: list[int] = []
        while frontier:
            d, p = heapq.heappop(frontier)
            if p in expanded:
                continue
            if len(best) >= L and d > -best[0][0]:
                break
            expanded.add(p)
            visited.append(p)
            cost.hops += 1
            nbrs = [n for n in self._nbrs[p] if n not in dists]
            if not nbrs:
                continue
            dn = pairwise_sq_l2(q[None, :], self._vecs[nbrs])[0]
            cost.dist_comps += len(nbrs)
            for n, dv in zip(nbrs, dn):
                dv = float(dv)
                dists[n] = dv
                if len(best) < L or dv < -best[0][0]:
                    heapq.heappush(frontier, (dv, n))
                    heapq.heappush(best, (-dv, n))
                    if len(best) > L:
                        heapq.heappop(best)
        live = sorted((d, p) for nd, p in best for d in (-nd,) if not self._dead(p))
        return [p for _, p in live[:k]], sorted(visited)

    def robust_prune(self, pos: int, candidates: list[int]) -> list[int]:
        """RobustPrune(p, V, alpha, R) — returns the pruned neighbor list.

        Retired (consolidated-away) nodes are excluded; lazily-deleted
        nodes may remain as routing hops until the next consolidation.
        """
        cand = [
            c for c in set(candidates) | set(self._nbrs[pos]) if c != pos and c not in self._retired
        ]
        if not cand:
            return []
        cand_a = np.asarray(cand, dtype=np.int64)
        d_p = pairwise_sq_l2(self._vecs[pos][None, :], self._vecs[cand_a])[0]
        order = np.argsort(d_p, kind="stable")
        cand_a, d_p = cand_a[order], d_p[order]
        # one N×N distance matrix instead of N small calls
        inter = pairwise_sq_l2(self._vecs[cand_a], self._vecs[cand_a])
        out: list[int] = []
        alive = np.ones(len(cand_a), dtype=bool)
        a2 = self.alpha**2  # squared distances: alpha relaxation is alpha^2
        for i in range(len(cand_a)):
            if not alive[i]:
                continue
            out.append(int(cand_a[i]))
            if len(out) >= self.R:
                break
            # prune any later candidate closer to cand[i] than (dist to p)/alpha
            kill = inter[i] * a2 <= d_p
            kill[: i + 1] = False
            alive &= ~kill
        return out

    def insert(self, vid: int, vec: np.ndarray, cost: SearchCost | None = None) -> None:
        """Standard Vamana incremental insert with backlink pruning."""
        pos = self._add_vec(vid, vec)
        if self._entry is None or self._dead(self._entry):
            self._entry = pos
            return
        _, visited = self.greedy_search(vec, 1, self.L, cost)
        self._nbrs[pos] = self.robust_prune(pos, visited)
        for n in self._nbrs[pos]:
            if pos not in self._nbrs[n]:
                self._nbrs[n].append(pos)
                # slack before re-pruning amortizes the O(N^2) prune cost
                if len(self._nbrs[n]) > int(self.R * 1.3) + 1:
                    self._nbrs[n] = self.robust_prune(n, self._nbrs[n])

    def delete(self, vid: int) -> None:
        """Lazy delete: tombstone; node keeps routing until consolidation."""
        pos = self._pos[vid]
        self._deleted.add(pos)
        if pos == self._entry:
            live = self.live_positions
            self._entry = live[0] if live else None

    def consolidate_deletes(self) -> int:
        """FreshDiskANN delete consolidation.

        Every live node adjacent to a deleted node re-routes through the
        deleted node's neighborhood: candidates = (nbrs \\ deleted) ∪
        (nbrs-of-deleted-nbrs \\ deleted), pruned by RobustPrune. Deleted
        nodes are then dropped from the adjacency structure. Returns the
        number of nodes repaired.
        """
        if not self._deleted:
            return 0
        repaired = 0
        for p in range(len(self._vids)):
            if p in self._deleted:
                continue
            dead = [n for n in self._nbrs[p] if n in self._deleted]
            if not dead:
                continue
            cand = set(n for n in self._nbrs[p] if n not in self._deleted)
            for dn in dead:
                cand.update(n for n in self._nbrs[dn] if n not in self._deleted and n != p)
            # clear before pruning: robust_prune unions the existing list,
            # which still contains the tombstoned neighbors
            self._nbrs[p] = []
            self._nbrs[p] = self.robust_prune(p, list(cand))
            repaired += 1
        for p in self._deleted:
            self._nbrs[p] = []
            self._pos.pop(self._vids[p], None)
        # positions stay allocated but are permanently unlinked
        self._retired |= self._deleted
        self._deleted = set()
        return repaired

    def search_vids(self, q: np.ndarray, k: int, L: int | None = None, cost: SearchCost | None = None) -> list[int]:
        pos, _ = self.greedy_search(q, k, L, cost)
        return [self._vids[p] for p in pos]

    def memory_bytes(self) -> int:
        """Graph edges + full-precision vectors resident (paper: DiskANN
        keeps compressed vectors + cached neighborhoods in memory)."""
        edges = sum(len(n) for n in self._nbrs)
        return 4 * edges + len(self._vids) * self.dim


@dataclass
class MergeStats:
    merges: int = 0
    insert_cost: SearchCost = field(default_factory=SearchCost)


class FreshDiskANN:
    """Out-of-place update wrapper: main graph + delta graph + tombstones."""

    def __init__(
        self,
        dim: int,
        *,
        R: int = 32,
        L_build: int = 64,
        L_search: int = 40,
        alpha: float = 1.2,
        merge_every: int = 10_000,
        seed: int = 0,
    ):
        self.dim = dim
        self.L_search = L_search
        self.main = VamanaGraph(dim, R=R, L=L_build, alpha=alpha, seed=seed)
        self.delta = VamanaGraph(dim, R=R, L=L_build, alpha=alpha, seed=seed + 1)
        self.tombstones: set[int] = set()
        self.merge_every = merge_every
        self.updates_since_merge = 0
        self.stats = MergeStats()
        self._vecs: dict[int, np.ndarray] = {}

    @classmethod
    def build(cls, vecs: np.ndarray, vids: np.ndarray, **kw) -> "FreshDiskANN":
        self = cls(vecs.shape[1], **kw)
        order = np.random.default_rng(kw.get("seed", 0)).permutation(len(vids))
        for i in order:
            self.main.insert(int(vids[i]), vecs[i], self.stats.insert_cost)
            self._vecs[int(vids[i])] = np.asarray(vecs[i], dtype=np.float32)
        return self

    # -- updates (out-of-place) ------------------------------------------
    def insert(self, vid: int, vec: np.ndarray) -> SearchCost:
        """Insert into the in-memory delta index; returns the search cost
        incurred (drives the insert-latency model)."""
        cost = SearchCost()
        self.delta.insert(vid, np.asarray(vec, dtype=np.float64), cost)
        self._vecs[vid] = np.asarray(vec, dtype=np.float32)
        self.stats.insert_cost.hops += cost.hops
        self.stats.insert_cost.dist_comps += cost.dist_comps
        self.updates_since_merge += 1
        return cost

    def delete(self, vid: int) -> None:
        self.tombstones.add(vid)
        self._vecs.pop(vid, None)
        self.updates_since_merge += 1

    def needs_merge(self) -> bool:
        return self.updates_since_merge >= self.merge_every

    def streaming_merge(self) -> None:
        """Fold delta into main: delete-consolidate, then patch-insert."""
        for vid in list(self.tombstones):
            if self.main.contains(vid):
                self.main.delete(vid)
            if self.delta.contains(vid):
                self.delta.delete(vid)
        self.main.consolidate_deletes()
        for pos in self.delta.live_positions:
            vid = self.delta._vids[pos]
            if vid in self.tombstones:
                continue
            self.main.insert(vid, self.delta._vecs[pos])
        self.delta = VamanaGraph(
            self.dim, R=self.main.R, L=self.main.L, alpha=self.main.alpha
        )
        self.tombstones = set()
        self.updates_since_merge = 0
        self.stats.merges += 1

    # -- search -----------------------------------------------------------
    def search(self, q: np.ndarray, k: int) -> tuple[list[int], SearchCost, SearchCost]:
        """Merged top-k over main graph + delta graph, tombstone-filtered.

        Returns (vids, main-graph cost, delta-graph cost): the main graph
        is disk-resident (hops → block reads) while the delta index is in
        memory (CPU only), so the adapter prices them differently.
        """
        main_cost, delta_cost = SearchCost(), SearchCost()
        main_ids = self.main.search_vids(q, 2 * k + len(self.tombstones) // 4, self.L_search, main_cost)
        delta_ids = self.delta.search_vids(q, k, self.L_search, delta_cost)
        cand = [v for v in dict.fromkeys(main_ids + delta_ids) if v not in self.tombstones]
        cand = [v for v in cand if v in self._vecs]
        if not cand:
            return [], main_cost, delta_cost
        d = pairwise_sq_l2(np.asarray(q, dtype=np.float64)[None, :], np.stack([self._vecs[v] for v in cand]))[0]
        order = topk_indices(d, k)
        return [cand[i] for i in order], main_cost, delta_cost

    def memory_bytes(self) -> int:
        """Modelled steady DRAM: main graph metadata + full delta index +
        tombstones; the merge spike is added by the adapter while merging."""
        return (
            self.main.memory_bytes()
            + self.delta.memory_bytes()
            + len(self.delta._vids) * self.dim * 4  # delta full-precision
            + 8 * len(self.tombstones)
        )
