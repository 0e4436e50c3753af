"""Tests for the synthetic vector generators."""
import numpy as np
import pytest

from repro import synth_data


class TestVectorGenerators:
    def test_clustered_vectors_shape_and_dtype(self):
        v = synth_data.clustered_vectors(n=100, dim=16, n_clusters=4, seed=0)
        assert v.shape == (100, 16) and v.dtype == np.float32

    def test_byte_range(self):
        v = synth_data.clustered_vectors(n=500, dim=8, seed=1)
        assert v.min() >= 0 and v.max() <= 255

    def test_skew_concentrates_mass(self):
        centers = synth_data.mixture_centers(n_clusters=16, dim=8, seed=3)
        skewed = synth_data.clustered_vectors(
            n=2000, dim=8, seed=2, centers=centers, weights=None, skew=2.0
        )
        uniform = synth_data.clustered_vectors(
            n=2000, dim=8, seed=2, centers=centers, weights=np.ones(16) / 16
        )
        from repro.core.distances import pairwise_sq_l2

        lab_s = pairwise_sq_l2(skewed, centers).argmin(axis=1)
        lab_u = pairwise_sq_l2(uniform, centers).argmin(axis=1)
        top_s = np.bincount(lab_s, minlength=16).max() / 2000
        top_u = np.bincount(lab_u, minlength=16).max() / 2000
        assert top_s > 2 * top_u

    def test_shifted_weights_properties(self):
        w = np.array([0.5, 0.3, 0.2])
        s0 = synth_data.shifted_weights(w, shift=0.0)
        np.testing.assert_allclose(s0, w)
        s1 = synth_data.shifted_weights(w, shift=1.0)
        assert s1.sum() == pytest.approx(1.0)
        assert sorted(np.round(s1, 6)) == sorted(np.round(w, 6))  # a permutation blend

    def test_ground_truth_is_exact(self):
        rng = np.random.default_rng(0)
        base = rng.random((200, 8)).astype(np.float32)
        qs = rng.random((10, 8)).astype(np.float32)
        gt = synth_data.ground_truth_knn(base, qs, 5)
        from repro.core.distances import pairwise_sq_l2

        d = pairwise_sq_l2(qs, base)
        for i in range(10):
            expect = np.argsort(d[i], kind="stable")[:5]
            np.testing.assert_array_equal(np.sort(gt[i]), np.sort(expect))
