"""Squared-L2 distance kernels shared by every index implementation.

The paper's datasets use Euclidean distance; all comparisons here use the
*squared* L2 (monotone in L2, cheaper, and exactly what matters for
nearest-centroid/nearest-neighbor argmins). Inputs are promoted to
float64 so the Spark/DuckDB twins compute bit-comparable values.
"""
from __future__ import annotations

import numpy as np


# Elements of one block of sq_norms' scratch (256 KiB of float64).
_NORM_BLOCK = 1 << 15


def sq_norms(a: np.ndarray) -> np.ndarray:
    """Each row's squared L2 norm, ``(a * a).sum(axis=1)`` formed a block of
    rows at a time: the scratch stays bounded and every sum is the same."""
    if a.size <= _NORM_BLOCK:
        return (a * a).sum(axis=1)
    step = max(1, _NORM_BLOCK // a.shape[1])
    blocks = (a[i : i + step] for i in range(0, len(a), step))
    return np.concatenate([(b * b).sum(axis=1) for b in blocks])


def pairwise_sq_l2(
    x: np.ndarray,
    y: np.ndarray,
    *,
    x_norms: np.ndarray | None = None,
    y_norms: np.ndarray | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """(n, d) × (m, d) → (n, m) matrix of squared L2 distances,
    ``xx + yy - 2·x·yᵀ`` clipped at 0.

    ``x_norms`` / ``y_norms`` are the rows' :func:`sq_norms` of float64
    ``x`` / ``y``, for a caller that keeps them between calls; the result
    is the same bit for bit, because a row's norm depends on that row
    alone. The centroid index keeps its centroids' norms; the Searcher's
    scan passes the norms its ParallelGET returned, which the Block
    Controller caches per block (the Parquet store computes them on read).

    ``out`` and ``work`` are C-contiguous (n, m) float64 buffers, for a
    caller that forms many blocks of distances and reuses its buffers:
    the result is formed in ``out`` (and returned) and ``x·yᵀ`` in
    ``work``. Either one left out is allocated. The operations and their
    order are the same with or without them, so every entry is the same
    bit for bit for a given shape of the product.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    xx = (sq_norms(x) if x_norms is None else x_norms)[:, None]
    yy = (sq_norms(y) if y_norms is None else y_norms)[None, :]
    d = np.add(xx, yy, out=out)
    xy = np.matmul(x, y.T, out=work)
    xy *= 2.0
    d -= xy
    np.maximum(d, 0.0, out=d)
    return d


def topk_per_row(d: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``k`` smallest finite entries as flat ``(rows, cols)``.

    Row-major, and within a row in ``(value, column)`` order: the
    ``ORDER BY dist, id`` convention of the Spark/DuckDB implementations.
    Every entry up to a row's k-th value is ranked, so a tie at the k-th
    value goes to the lower column. ``+inf`` marks an absent entry; a row
    with fewer than ``k`` finite entries yields only those.
    """
    d = np.atleast_2d(d)
    k = min(k, d.shape[1])
    if k <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    kth = np.partition(d, k - 1, axis=1)[:, [k - 1]]  # a copy: the partition is freed
    rows, cols = np.divmod(np.flatnonzero(d <= kth), d.shape[1])  # in (row, column) order
    vals = d[rows, cols]
    order = np.lexsort((vals, rows))  # stable, so equal values keep column order
    rows, cols, vals = rows[order], cols[order], vals[order]
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
    keep = (rank < k) & (vals < np.inf)
    return rows[keep], cols[keep]


def topk_indices(dist_row: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest entries of one row, in ``(value,
    index)`` order (:func:`topk_per_row` of a single row)."""
    return topk_per_row(np.asarray(dist_row)[None, :], k)[1]
