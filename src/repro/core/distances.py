"""Squared-L2 distance kernels shared by every index implementation.

The paper's datasets use Euclidean distance; all comparisons here use the
*squared* L2 (monotone in L2, cheaper, and exactly what matters for
nearest-centroid/nearest-neighbor argmins). Inputs are promoted to
float64 so the Spark/DuckDB twins compute bit-comparable values.
"""
from __future__ import annotations

import numpy as np


def pairwise_sq_l2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n, d) × (m, d) → (n, m) matrix of squared L2 distances."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    xx = (x * x).sum(axis=1)[:, None]
    yy = (y * y).sum(axis=1)[None, :]
    d = xx + yy - 2.0 * (x @ y.T)
    np.maximum(d, 0.0, out=d)
    return d


def topk_indices(dist_row: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest entries, sorted ascending by value.

    Ties broken by index (stable), matching the ``ORDER BY dist, id``
    convention used by the Spark/DuckDB implementations.
    """
    k = min(k, len(dist_row))
    if k == len(dist_row):
        idx = np.arange(len(dist_row))
    else:
        idx = np.argpartition(dist_row, k)[:k]
    order = np.lexsort((idx, dist_row[idx]))
    return idx[order]
