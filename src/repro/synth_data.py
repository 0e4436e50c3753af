"""Synthetic vector datasets for the SPFresh reproduction (SOSP '23).

The paper evaluates on SIFT1B (image vectors, roughly uniform cluster
mass) and SPACEV1B (text vectors, skewed, and the update stream shifts
the distribution over time). Neither dataset is available offline, so we
generate Gaussian-mixture byte vectors whose *shape* matches what drives
the paper's results: cluster structure, skew of cluster mass, and a
distribution shift between the base set and the update pool (see
DESIGN.md §2 for the substitution argument). Generators are deterministic
in ``seed`` so the DuckDB oracle sees identical input.
"""
import numpy as np


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def mixture_centers(*, n_clusters: int, dim: int, seed: int, spread: float = 255.0) -> np.ndarray:
    """Cluster centers for a synthetic vector mixture, uniform in [0, spread)."""
    return _rng(seed).random((n_clusters, dim)) * spread


def clustered_vectors(
    *,
    n: int,
    dim: int = 32,
    n_clusters: int = 64,
    seed: int = 0,
    skew: float = 0.0,
    cluster_sigma: float = 12.0,
    centers: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Gaussian-mixture vectors, clipped to byte range like SIFT/SPACEV.

    ``skew=0`` gives uniform cluster mass (SIFT-like); ``skew>0`` draws
    cluster mass from a Zipf-ish law (SPACEV-like). Pass explicit
    ``centers``/``weights`` to generate a *shifted* pool from a related but
    different mixture (the paper's "data distribution shifts over time").
    """
    g = _rng(seed)
    if centers is None:
        centers = mixture_centers(n_clusters=n_clusters, dim=dim, seed=seed + 1)
    if weights is None:
        if skew > 0:
            w = 1.0 / np.arange(1, len(centers) + 1) ** skew
        else:
            w = np.ones(len(centers))
        weights = w / w.sum()
    labels = g.choice(len(centers), size=n, p=weights)
    x = centers[labels] + g.normal(0.0, cluster_sigma, (n, centers.shape[1]))
    return np.clip(x, 0, 255).astype(np.float32)


def shifted_weights(base_weights: np.ndarray, *, shift: float, seed: int = 7) -> np.ndarray:
    """Re-weight a mixture to simulate distribution shift in the update pool.

    ``shift`` in [0, 1]: 0 returns ``base_weights``; 1 returns a fully
    re-drawn (permuted + re-skewed) weighting, concentrating update mass on
    clusters that were rare in the base set — exactly the regime where naive
    in-place appends skew posting sizes.
    """
    g = _rng(seed)
    target = base_weights[g.permutation(len(base_weights))]
    w = (1 - shift) * base_weights + shift * target
    return w / w.sum()


def ground_truth_knn(base: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Exact top-k indices (into ``base``) per query, by squared L2."""
    out = np.empty((len(queries), k), dtype=np.int64)
    bn = (base.astype(np.float64) ** 2).sum(axis=1)
    for i, q in enumerate(queries.astype(np.float64)):
        d = bn - 2.0 * base.astype(np.float64) @ q  # + |q|^2, constant per query
        idx = np.argpartition(d, k)[:k]
        out[i] = idx[np.argsort(d[idx], kind="stable")]
    return out
