"""Tests for balanced clustering and SPANN closure assignment (§3.1, §4.2.1)."""
import numpy as np
import pytest

from repro.core.clustering import balanced_two_means, hierarchical_balanced_clustering
from repro.core.distances import pairwise_sq_l2
from repro.core.lire import closure_assign


def per_row(assign: tuple[np.ndarray, np.ndarray], n: int) -> list[np.ndarray]:
    """``closure_assign``'s flat (rows, cols) pairs as one array per row."""
    rows, cols = assign
    return np.split(cols, np.searchsorted(rows, np.arange(1, n)))


def blobs(n: int, dim: int = 4, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.random((4, dim)) * 100
    return centers[rng.integers(0, 4, n)] + rng.normal(0, 2, (n, dim))


class TestBalancedTwoMeans:
    @pytest.mark.parametrize("n", [2, 3, 10, 100, 501])
    def test_balance_bound(self, n):
        centers, labels = balanced_two_means(blobs(n), seed=1)
        counts = np.bincount(labels, minlength=2)
        assert counts.max() <= int(np.ceil(n * 0.6))
        assert counts.min() >= 1

    def test_centroids_are_cluster_means(self):
        x = blobs(200)
        centers, labels = balanced_two_means(x, seed=2)
        for c in (0, 1):
            np.testing.assert_allclose(centers[c], x[labels == c].mean(axis=0), rtol=1e-6)

    def test_separable_data_split_on_gap(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, (50, 3))
        b = rng.normal(100, 1, (50, 3))
        x = np.vstack([a, b])
        _, labels = balanced_two_means(x, seed=0)
        # the two natural clusters end up in different halves
        assert len(set(labels[:50])) == 1 and len(set(labels[50:])) == 1
        assert labels[0] != labels[50]

    def test_identical_points_still_split(self):
        x = np.ones((10, 3))
        _, labels = balanced_two_means(x, seed=0)
        assert set(np.bincount(labels, minlength=2)) <= {4, 5, 6}

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            balanced_two_means(np.ones((1, 3)))

    def test_deterministic_in_seed(self):
        x = blobs(100, seed=5)
        c1, l1 = balanced_two_means(x, seed=7)
        c2, l2 = balanced_two_means(x, seed=7)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_allclose(c1, c2)


class TestHierarchicalBalancedClustering:
    @pytest.mark.parametrize("n,max_size", [(100, 10), (500, 32), (1000, 50), (37, 5)])
    def test_leaf_size_bound(self, n, max_size):
        x = blobs(n, seed=n)
        centroids, labels = hierarchical_balanced_clustering(x, max_size=max_size)
        counts = np.bincount(labels)
        assert counts.max() <= max_size
        assert counts.sum() == n

    def test_every_point_labelled(self):
        x = blobs(300)
        centroids, labels = hierarchical_balanced_clustering(x, max_size=20)
        assert labels.min() >= 0 and labels.max() == len(centroids) - 1

    def test_centroid_count_reasonable(self):
        # balance ⇒ #leaves within a small factor of n / max_size
        x = blobs(1000, seed=9)
        centroids, _ = hierarchical_balanced_clustering(x, max_size=50)
        assert 1000 // 50 <= len(centroids) <= 4 * (1000 // 50)

    def test_centroids_are_leaf_means(self):
        x = blobs(200, seed=11)
        centroids, labels = hierarchical_balanced_clustering(x, max_size=25)
        for j in range(len(centroids)):
            np.testing.assert_allclose(centroids[j], x[labels == j].mean(axis=0), rtol=1e-6)

    def test_small_input_single_leaf(self):
        x = blobs(5)
        centroids, labels = hierarchical_balanced_clustering(x, max_size=10)
        assert len(centroids) == 1 and (labels == 0).all()


class TestClosureAssign:
    def test_nearest_centroid_always_first(self):
        rng = np.random.default_rng(0)
        vecs, cents = rng.random((50, 8)), rng.random((10, 8))
        assign = per_row(closure_assign(vecs, cents, max_replicas=4, eps=0.2), len(vecs))
        d = pairwise_sq_l2(vecs, cents)
        for i, a in enumerate(assign):
            assert a[0] == d[i].argmin()

    def test_eps_zero_single_assignment(self):
        rng = np.random.default_rng(1)
        vecs, cents = rng.random((50, 8)), rng.random((10, 8))
        assign = per_row(closure_assign(vecs, cents, max_replicas=8, eps=0.0), len(vecs))
        assert all(len(a) == 1 for a in assign)

    def test_replica_cap_respected(self):
        vecs = np.zeros((5, 4))
        cents = np.zeros((10, 4))  # all equidistant (0) → everything qualifies
        assign = per_row(closure_assign(vecs, cents, max_replicas=3, eps=1.0), len(vecs))
        assert all(len(a) == 3 for a in assign)

    def test_all_replicas_within_eps_ratio(self):
        rng = np.random.default_rng(2)
        vecs, cents = rng.random((100, 8)), rng.random((20, 8))
        eps = 0.15
        assign = per_row(closure_assign(vecs, cents, max_replicas=8, eps=eps), len(vecs))
        d = pairwise_sq_l2(vecs, cents)
        for i, a in enumerate(assign):
            dmin = d[i, a[0]]
            assert (d[i, a] <= (1 + eps) ** 2 * dmin + 1e-9).all()

    def test_assignments_sorted_by_distance(self):
        rng = np.random.default_rng(3)
        vecs, cents = rng.random((30, 8)), rng.random((15, 8))
        assign = per_row(closure_assign(vecs, cents, max_replicas=5, eps=0.5), len(vecs))
        d = pairwise_sq_l2(vecs, cents)
        for i, a in enumerate(assign):
            dist = d[i, a]
            assert (np.diff(dist) >= -1e-12).all()
