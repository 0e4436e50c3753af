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
  subject to a maximum imbalance ratio.
- :func:`hierarchical_balanced_clustering` — recursive balanced
  bisection until every leaf holds at most ``max_size`` points; leaves
  become postings, their means the initial centroids.
"""
from __future__ import annotations

import numpy as np

from repro.core.distances import pairwise_sq_l2


def _kmeanspp_pair(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """k-means++ style init of two distinct centers."""
    i = int(rng.integers(len(x)))
    d = pairwise_sq_l2(x, x[i : i + 1])[:, 0]
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
    centers = _kmeanspp_pair(x, rng)
    cap = max(1, int(np.ceil(n * max_imbalance)))
    lo, hi = n - cap, cap  # allowed cut-point window
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(n_iter):
        d = pairwise_sq_l2(x, centers)
        margin = d[:, 0] - d[:, 1]  # <0 → prefers cluster 0
        order = np.argsort(margin, kind="stable")
        # prefix sums of cost if the first c points (by margin) go to 0
        cost0 = np.cumsum(d[order, 0])
        cost1 = np.cumsum(d[order[::-1], 1])[::-1]
        cuts = np.arange(lo, hi + 1)
        total = np.where(cuts > 0, cost0[cuts - 1], 0.0) + np.where(
            cuts < n, np.concatenate([cost1, [0.0]])[cuts], 0.0
        )
        cut = int(cuts[np.argmin(total)])
        new_labels = np.ones(n, dtype=np.int64)
        new_labels[order[:cut]] = 0
        for c in (0, 1):
            pts = x[new_labels == c]
            if len(pts):
                centers[c] = pts.mean(axis=0)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return centers, labels


def hierarchical_balanced_clustering(
    x: np.ndarray, *, max_size: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Recursive balanced bisection into leaves of at most ``max_size``.

    Returns ``(centroids (k, d), labels (n,))`` where ``labels[i]`` is the
    leaf index of point ``i`` and ``centroids[j]`` the mean of leaf ``j``.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    labels = np.zeros(n, dtype=np.int64)
    centroids: list[np.ndarray] = []
    stack: list[tuple[np.ndarray, int]] = [(np.arange(n), seed)]
    while stack:
        idx, s = stack.pop()
        if len(idx) <= max_size or len(idx) < 2:
            labels[idx] = len(centroids)
            centroids.append(x[idx].mean(axis=0) if len(idx) else np.zeros(x.shape[1]))
            continue
        _, sub = balanced_two_means(x[idx], seed=s)
        stack.append((idx[sub == 0], s * 2 + 1))
        stack.append((idx[sub == 1], s * 2 + 2))
    return np.asarray(centroids), labels

