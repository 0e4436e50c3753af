"""The LIRE planner: every rebalancing decision of both engines (paper §3.3, §4.2).

LIRE's decisions are pure functions of the vectors, the centroids and the
version map, so they are made here, once. ``repro.core.spfresh`` (Block
Controller, job queue) and ``repro.spark_index`` (Parquet dataset, Spark
rounds) call this module and differ only in storage and execution. The
decisions it owns:

- **Build leaf sizing** (:func:`build_layout`): hierarchical balanced
  clustering into leaves of 0.6 × the split limit, clustered again with
  leaves shrunk by the replication factor rho when rho > 1.15.
- **Closure assignment** (:func:`closure_assign`, :func:`closure_pids`):
  SPANN's replication of boundary vectors (Chen et al., NeurIPS 2021).
- **Split** (:func:`split`): balanced 2-means over a posting's live rows
  sorted by vid, seeded from those vids, so both engines split the same
  posting the same way.
- **Reassign scope** (:func:`reassign_scope`): the ``reassign_range``
  postings nearest the old centroid, besides the split ones.
- **Condition screening** (:func:`reassign_candidate_mask`): the two
  necessary conditions below.
- **Candidate dedupe, final NPA check and CAS** (:func:`plan_moves`).
- **Merge target** (:func:`merge_target`): the nearest other posting.

Whether a stored replica is stale is :meth:`VersionMap.is_stale`.

After a split replaces old centroid ``A_o`` with new centroids
``A_1, A_2`` (and, for a merge, simply deletes a centroid), the Nearest
Partition Assignment (NPA) invariant — every vector lives in the posting
of its nearest centroid — may be violated for vectors in the split
posting and its neighborhood. LIRE narrows the candidate set with two
*necessary* conditions:

- **Condition 1** (vectors that were in the split posting): a vector
  ``v`` need only be checked if ``D(v, A_o) <= D(v, A_i)`` for *all* new
  centroids ``A_i`` — i.e. the deleted centroid was still its best among
  the changed ones, so some unexamined neighbor centroid (``B``) might
  now be the true nearest.
- **Condition 2** (vectors in a nearby posting ``B``): a vector need
  only be checked if ``D(v, A_i) <= D(v, A_o)`` for *some* new centroid —
  i.e. a new centroid moved closer than the deleted one, so it might
  beat ``B``.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.centroid_index import CentroidIndex
from repro.core.clustering import balanced_two_means, hierarchical_balanced_clustering
from repro.core.distances import pairwise_sq_l2
from repro.core.version_map import VersionMap

if TYPE_CHECKING:
    from repro.core.spfresh import SPFreshConfig


def condition_one(vecs: np.ndarray, old_centroid: np.ndarray, new_centroids: np.ndarray) -> np.ndarray:
    """Mask of split-posting vectors that must be *checked* for reassignment.

    True iff ``D(v, A_o) <= D(v, A_i)`` for every new centroid ``A_i``.
    """
    vecs = np.atleast_2d(vecs)
    d_old = pairwise_sq_l2(vecs, np.atleast_2d(old_centroid))[:, 0]
    d_new = pairwise_sq_l2(vecs, np.atleast_2d(new_centroids))
    return (d_old[:, None] <= d_new).all(axis=1)


def condition_two(vecs: np.ndarray, old_centroid: np.ndarray, new_centroids: np.ndarray) -> np.ndarray:
    """Mask of neighbor-posting vectors that must be *checked*.

    True iff ``D(v, A_i) <= D(v, A_o)`` for some new centroid ``A_i``.
    """
    vecs = np.atleast_2d(vecs)
    d_old = pairwise_sq_l2(vecs, np.atleast_2d(old_centroid))[:, 0]
    d_new = pairwise_sq_l2(vecs, np.atleast_2d(new_centroids))
    return (d_new <= d_old[:, None]).any(axis=1)


def reassign_candidate_mask(
    vecs: np.ndarray,
    old_centroid: np.ndarray,
    new_centroids: np.ndarray,
    *,
    in_split_posting: bool,
) -> np.ndarray:
    """Condition 1 for the rows of a split posting, condition 2 for the rest."""
    if in_split_posting:
        return condition_one(vecs, old_centroid, new_centroids)
    return condition_two(vecs, old_centroid, new_centroids)


def closure_assign(
    vecs: np.ndarray,
    centroids: np.ndarray,
    *,
    max_replicas: int = 4,
    eps: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """SPANN closure assignment: replicate boundary vectors.

    Each vector is assigned to its nearest centroid plus every centroid
    within a ``(1 + eps)`` distance-ratio of the nearest (squared ratio
    ``(1 + eps)^2``), capped at ``max_replicas`` postings; equal distances
    go to the lower column. Returns flat ``(rows, cols)`` pairs, row-major
    and nearest column first within a row; every row has at least one.
    """
    d = pairwise_sq_l2(vecs, centroids)
    n, m = d.shape
    k = min(max_replicas, m)
    if k < m:
        cand = np.argpartition(d, k - 1, axis=1)[:, :k]
    else:
        cand = np.broadcast_to(np.arange(m), (n, m))
    dist = np.take_along_axis(d, cand, axis=1)
    order = np.lexsort((cand, dist), axis=1)
    cand = np.take_along_axis(cand, order, axis=1)
    dist = np.take_along_axis(dist, order, axis=1)
    keep = dist <= (1.0 + eps) ** 2 * dist[:, :1] + 1e-12
    return np.nonzero(keep)[0], cand[keep]


def closure_pids(
    index: CentroidIndex, vecs: np.ndarray, config: SPFreshConfig
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, pids)``: each vector's closure over the alive postings."""
    alive = index.alive_ids
    rows, cols = closure_assign(
        vecs, index.centroids(alive), max_replicas=config.max_replicas, eps=config.closure_eps
    )
    return rows, alive[cols]


def build_layout(
    vecs: np.ndarray, config: SPFreshConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centroids of the initial build and the closure ``(rows, cols)`` onto them."""
    # Closure replication multiplies posting occupancy by rho; size the
    # clustering leaves so post-replication postings sit at ~60% of the
    # split limit (SPANN's balanced build leaves headroom for appends).
    centroids, _ = hierarchical_balanced_clustering(
        vecs, max_size=max(2, int(config.split_limit * 0.6)), seed=config.seed
    )
    rows, cols = closure_assign(
        vecs, centroids, max_replicas=config.max_replicas, eps=config.closure_eps
    )
    rho = len(rows) / max(1, len(vecs))
    if rho > 1.15:
        centroids, _ = hierarchical_balanced_clustering(
            vecs, max_size=max(2, int(config.split_limit * 0.6 / rho)), seed=config.seed
        )
        rows, cols = closure_assign(
            vecs, centroids, max_replicas=config.max_replicas, eps=config.closure_eps
        )
    return centroids, rows, cols


def split(
    vids: np.ndarray, vecs: np.ndarray, config: SPFreshConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Balanced 2-means of one oversized posting's live rows (§4.2.1).

    Returns ``(order, centers, labels)``: row ``order[i]`` goes to the
    posting of ``centers[labels[i]]``. The rows are clustered sorted by
    vid with a seed derived from those vids, so the same rows split the
    same way whatever order storage returns them in.
    """
    vids = np.asarray(vids, dtype=np.int64)
    order = np.argsort(vids, kind="stable")
    seed = config.seed + zlib.crc32(vids[order].tobytes())
    centers, labels = balanced_two_means(np.asarray(vecs)[order], seed=seed)
    return order, centers, labels


def reassign_scope(
    index: CentroidIndex, old_centroid: np.ndarray, new_pids, reassign_range: int
) -> list[int]:
    """Postings besides the split ones whose vectors condition 2 screens:
    the ``reassign_range`` alive postings nearest the old centroid."""
    if reassign_range <= 0:
        return []
    near = index.search(old_centroid, reassign_range + len(new_pids))
    return [int(p) for p in near if int(p) not in new_pids][:reassign_range]


def merge_target(index: CentroidIndex, pid: int) -> int | None:
    """The posting an undersized posting merges into: the alive one whose
    centroid is nearest its own, or ``None`` when it is the last (§3.2)."""
    near = [int(p) for p in index.search(index.centroid(pid), 2) if int(p) != pid]
    return near[0] if near else None


@dataclass
class Moves:
    """Replica rows to append for the vectors that move, and the plan's counts."""

    pids: np.ndarray
    vids: np.ndarray
    versions: np.ndarray
    vecs: np.ndarray
    evaluated: int  # distinct vectors given the final NPA check
    moved: int
    aborted: int  # lost CAS races


def plan_moves(
    vids: np.ndarray,
    versions: np.ndarray,
    vecs: np.ndarray,
    cur_pids: np.ndarray,
    index: CentroidIndex,
    version_map: VersionMap,
    config: SPFreshConfig,
) -> Moves:
    """Final NPA check and CAS for reassign candidates (§3.3, §4.2.2).

    Candidate ``i`` is a live replica of vector ``vids[i]`` at
    ``versions[i]``, read from posting ``cur_pids[i]``. A vector that is a
    candidate in several postings is decided once: it stays when one of
    them is its nearest posting; otherwise its version is bumped by CAS
    and one row per posting of its closure is planned at the new version,
    which makes every older replica stale. A lost CAS plans nothing and
    leaves the vector as it is. Vectors are decided in vid order, so the
    plan does not depend on the order of the candidates.
    """
    vids, versions = np.asarray(vids, dtype=np.int64), np.asarray(versions)
    uniq, first, inv = np.unique(vids, return_index=True, return_inverse=True)
    uvecs = np.asarray(vecs)[first]
    rows, pids = closure_pids(index, uvecs, config)
    primary = pids[np.searchsorted(rows, np.arange(len(uniq)))]
    stays = np.zeros(len(uniq), dtype=bool)
    stays[inv[np.asarray(cur_pids) == primary[inv]]] = True
    new_version = np.zeros(len(uniq), dtype=np.int64)
    moved = np.zeros(len(uniq), dtype=bool)
    for u in np.flatnonzero(~stays):
        v = version_map.bump_cas(int(uniq[u]), int(versions[first[u]]))
        if v is not None:
            new_version[u], moved[u] = v, True
    take = moved[rows]
    rows = rows[take]
    n_moved = int(moved.sum())
    return Moves(
        pids=pids[take],
        vids=uniq[rows],
        versions=new_version[rows],
        vecs=uvecs[rows],
        evaluated=len(uniq),
        moved=n_moved,
        aborted=int((~stays).sum()) - n_moved,
    )
