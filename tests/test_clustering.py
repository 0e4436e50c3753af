"""Tests for balanced clustering and SPANN closure assignment (§3.1, §4.2.1)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import (
    balanced_leaves,
    balanced_two_means,
    hierarchical_balanced_clustering,
)
from repro.core.distances import pairwise_sq_l2
from repro.core.lire import build_layout, closure_assign
from repro.core.spfresh import SPFreshConfig
from repro.synth_data import clustered_vectors


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


# -- the build, bit for bit -------------------------------------------------
# Reference copies of the straightforward build: 2-means recomputes the row
# norms, every cut cost and each centre's mean on every iteration, and the
# build's second pass clusters again from the root.


def ref_kmeanspp_pair(x, rng):
    i = int(rng.integers(len(x)))
    d = pairwise_sq_l2(x, x[i : i + 1])[:, 0]
    total = d.sum()
    if total <= 0:
        j = (i + 1) % len(x)
    else:
        j = int(rng.choice(len(x), p=d / total))
        if j == i:
            j = int(np.argmax(d))
    return np.stack([x[i], x[j]]).astype(np.float64)


def ref_balanced_two_means(x, *, seed=0, n_iter=8, max_imbalance=0.6):
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    rng = np.random.default_rng(seed)
    centers = ref_kmeanspp_pair(x, rng)
    cap = max(1, int(np.ceil(n * max_imbalance)))
    lo, hi = n - cap, cap
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(n_iter):
        d = pairwise_sq_l2(x, centers)
        margin = d[:, 0] - d[:, 1]
        order = np.argsort(margin, kind="stable")
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


def ref_hierarchical(x, *, max_size, seed=0):
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    labels = np.zeros(n, dtype=np.int64)
    centroids = []
    stack = [(np.arange(n), seed)]
    while stack:
        idx, s = stack.pop()
        if len(idx) <= max_size or len(idx) < 2:
            labels[idx] = len(centroids)
            centroids.append(x[idx].mean(axis=0) if len(idx) else np.zeros(x.shape[1]))
            continue
        _, sub = ref_balanced_two_means(x[idx], seed=s)
        stack.append((idx[sub == 0], s * 2 + 1))
        stack.append((idx[sub == 1], s * 2 + 2))
    return np.asarray(centroids), labels


def ref_build_layout(vecs, config):
    """Also returns whether the second pass ran. Keeps only the centroids
    some vector's closure holds, as the build does."""
    centroids, _ = ref_hierarchical(
        vecs, max_size=max(2, int(config.split_limit * 0.6)), seed=config.seed
    )
    rows, cols = closure_assign(
        vecs, centroids, max_replicas=config.max_replicas, eps=config.closure_eps
    )
    rho = len(rows) / max(1, len(vecs))
    if rho > 1.15:
        centroids, _ = ref_hierarchical(
            vecs, max_size=max(2, int(config.split_limit * 0.6 / rho)), seed=config.seed
        )
        rows, cols = closure_assign(
            vecs, centroids, max_replicas=config.max_replicas, eps=config.closure_eps
        )
    used = np.flatnonzero(np.bincount(cols, minlength=len(centroids)))
    renumber = np.cumsum(np.bincount(cols, minlength=len(centroids)) > 0) - 1
    return centroids[used], rows, renumber[cols], rho > 1.15


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


@st.composite
def point_sets(draw, max_n=120):
    """Random floats, tie-heavy small integers or a few repeated points,
    as float32 or float64."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, dim = draw(st.integers(2, max_n)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["float", "ties", "repeats"]))
    if kind == "float":
        x = rng.normal(0, 1, (n, dim)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    elif kind == "ties":
        x = rng.integers(0, 3, (n, dim))
    else:
        points = rng.normal(0, 1, (draw(st.integers(1, 3)), dim))
        x = points[rng.integers(0, len(points), n)]
    return x.astype(draw(st.sampled_from([np.float32, np.float64])))


class TestBuildMatchesReference:
    @given(point_sets(), st.integers(0, 2**31))
    @settings(max_examples=300, deadline=None)
    def test_two_means(self, x, seed):
        centers, labels = balanced_two_means(x, seed=seed)
        ref_centers, ref_labels = ref_balanced_two_means(x, seed=seed)
        assert_same_bits(centers, ref_centers)
        assert_same_bits(labels, ref_labels)

    @given(point_sets(max_n=300), st.integers(2, 40), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_hierarchical(self, x, max_size, seed):
        centroids, labels = hierarchical_balanced_clustering(x, max_size=max_size, seed=seed)
        ref_centroids, ref_labels = ref_hierarchical(x, max_size=max_size, seed=seed)
        assert_same_bits(centroids, ref_centroids)
        assert_same_bits(labels, ref_labels)

    @given(point_sets(max_n=300), st.integers(2, 40), st.integers(2, 40), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_refined_leaves_are_a_fresh_pass(self, x, a, b, seed):
        x = x.astype(np.float64)
        coarse, fine = max(a, b), min(a, b)
        root = [(np.arange(len(x)), seed)]
        refined = balanced_leaves(x, balanced_leaves(x, root, max_size=coarse), max_size=fine)
        fresh = balanced_leaves(x, root, max_size=fine)
        assert [s for _, s in refined] == [s for _, s in fresh]
        for (rows, _), (ref_rows, _) in zip(refined, fresh):
            assert_same_bits(rows, ref_rows)

    # The core engine builds from float32 vectors, the Spark engine from float64.
    # The second case's rho is about 1.02: a second pass would shrink its
    # leaves from 57 to 56, so a wrong rho threshold changes the layout.
    @pytest.mark.parametrize(
        "n,kw,dtype,second_pass",
        [(8_000, {}, np.float32, True), (3_000, {"closure_eps": 0.08}, np.float64, False)],
    )
    def test_build_layout(self, n, kw, dtype, second_pass):
        vecs = clustered_vectors(n=n, dim=32, n_clusters=64, seed=0).astype(dtype)
        cfg = SPFreshConfig(dim=32, **kw)
        *ref, ran_second = ref_build_layout(vecs, cfg)
        assert ran_second == second_pass
        for got, want in zip(build_layout(vecs, cfg), ref):
            assert_same_bits(got, want)
