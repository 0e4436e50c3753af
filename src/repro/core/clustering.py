"""SPANN-style balanced clustering (paper §3.1 and §4.2.1).

SPANN builds its index with a *hierarchical balanced clustering* that
divides the vector set evenly into many small postings; SPFresh's split
operator reuses the same *multi-constraint balanced clustering* to split
one oversized posting into two balanced halves with high-quality
centroids. We implement:

- :func:`balanced_two_means` — 2-means with a balance constraint, used by
  the split operator. Lloyd iterations with a margin-ranked balanced
  assignment: points are ordered by their distance margin between the two
  centroids and the cut point is chosen to minimise within-cluster cost
  subject to a maximum imbalance ratio. The row norms are formed once per
  call, and only the cut points the ratio allows are costed.
- :func:`balanced_leaves` — the index build's hierarchical balanced
  clustering: recursive balanced bisection of ``(rows, seed)`` nodes until
  every leaf holds at most ``max_size`` points. Leaves become postings,
  their means (:func:`leaf_means`) the initial centroids. A node is fully
  determined by its rows and its seed (children get ``2s + 1`` and
  ``2s + 2``), so refining the leaves of a coarser pass with a smaller
  ``max_size`` yields exactly the leaves, in the same order, of a fresh
  pass from the root: the build's second pass (``lire.build_layout``)
  bisects only the first pass's leaves that are still too large.
- :func:`hierarchical_balanced_clustering` — the from-root convenience
  form, ``(centroids, labels)`` of one pass; the build itself calls
  :func:`balanced_leaves` and :func:`leaf_means`, tests call this.
"""
from __future__ import annotations

import numpy as np

from repro.core.distances import pairwise_sq_l2, sq_norms

# A tree node: the rows it holds and the seed of its 2-means.
Node = tuple[np.ndarray, int]


def _kmeanspp_pair(x: np.ndarray, norms: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """k-means++ style init of two distinct centers (``norms``: ``x``'s row norms)."""
    i = int(rng.integers(len(x)))
    d = pairwise_sq_l2(x, x[i : i + 1], x_norms=norms)[:, 0]
    total = d.sum()
    if total <= 0:  # all points identical
        j = (i + 1) % len(x)
    else:
        j = int(rng.choice(len(x), p=d / total))
        if j == i:
            j = int(np.argmax(d))
    return np.stack([x[i], x[j]]).astype(np.float64)


def balanced_two_means(
    x: np.ndarray,
    *,
    seed: int = 0,
    n_iter: int = 8,
    max_imbalance: float = 0.6,
) -> tuple[np.ndarray, np.ndarray]:
    """Split points into two balanced clusters.

    Returns ``(centroids (2, d), labels (n,) in {0, 1})`` with each
    cluster holding at most ``max_imbalance`` of the points (default 60%,
    i.e. near-even halves as the paper's "evenly splits the oversized
    posting into two smaller ones").
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n < 2:
        raise ValueError("cannot split fewer than 2 points")
    rng = np.random.default_rng(seed)
    norms = sq_norms(x)
    centers = _kmeanspp_pair(x, norms, rng)
    cap = max(1, int(np.ceil(n * max_imbalance)))
    lo, hi = n - cap, cap  # allowed cut-point window
    cost0 = np.zeros(cap + 1)  # [c]: cost if the first c points (by margin) go to 0
    cost1 = np.zeros(cap + 1)  # [c]: cost if the last c points go to 1
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(n_iter):
        d = pairwise_sq_l2(x, centers, x_norms=norms)
        order = np.argsort(d[:, 0] - d[:, 1], kind="stable")  # <0 → prefers cluster 0
        np.cumsum(d[order[:cap], 0], out=cost0[1:])
        np.cumsum(d[order[::-1][:cap], 1], out=cost1[1:])
        # cut c in [lo, hi] costs cost0[c] + cost1[n - c]
        cut = lo + int(np.argmin(cost0[lo:] + cost1[::-1][: hi - lo + 1]))
        new_labels = np.ones(n, dtype=np.int64)
        new_labels[order[:cut]] = 0
        for c, size in ((0, cut), (1, n - cut)):
            if size:  # the rows in row order, as .mean would sum them
                centers[c] = x[new_labels == c].sum(axis=0) / size
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return centers, labels


def balanced_leaves(x: np.ndarray, nodes: list[Node], *, max_size: int) -> list[Node]:
    """Bisect each node until every leaf holds at most ``max_size`` rows.

    Returns the leaves depth first, each node's in turn: of a node's two
    children, the one labelled 1 comes first. ``x`` is float64.
    """
    leaves: list[Node] = []
    stack = nodes[::-1]
    while stack:
        idx, s = stack.pop()
        if len(idx) <= max_size or len(idx) < 2:
            leaves.append((idx, s))
            continue
        _, sub = balanced_two_means(x[idx], seed=s)
        stack.append((idx[sub == 0], s * 2 + 1))
        stack.append((idx[sub == 1], s * 2 + 2))
    return leaves


def leaf_means(x: np.ndarray, leaves: list[Node]) -> np.ndarray:
    """``(k, d)``: each leaf's mean (zeros for an empty leaf)."""
    return np.asarray(
        [x[idx].sum(axis=0) / len(idx) if len(idx) else np.zeros(x.shape[1]) for idx, _ in leaves]
    )


def hierarchical_balanced_clustering(
    x: np.ndarray, *, max_size: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Recursive balanced bisection from the root into leaves of at most
    ``max_size``: :func:`balanced_leaves` plus :func:`leaf_means` in the
    ``(centroids, labels)`` form tests use (``lire.build_layout`` calls
    those two directly, to refine its first pass).

    Returns ``(centroids (k, d), labels (n,))`` where ``labels[i]`` is the
    leaf index of point ``i`` and ``centroids[j]`` the mean of leaf ``j``.
    """
    x = np.asarray(x, dtype=np.float64)
    leaves = balanced_leaves(x, [(np.arange(len(x)), seed)], max_size=max_size)
    labels = np.zeros(len(x), dtype=np.int64)
    for j, (idx, _) in enumerate(leaves):
        labels[idx] = j
    return leaf_means(x, leaves), labels
