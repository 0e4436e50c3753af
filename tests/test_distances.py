"""Tests for the shared distance kernels."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distances import pairwise_sq_l2, topk_indices, topk_per_row


class TestPairwiseSqL2:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        x, y = rng.random((5, 4)), rng.random((7, 4))
        d = pairwise_sq_l2(x, y)
        for i in range(5):
            for j in range(7):
                assert d[i, j] == pytest.approx(((x[i] - y[j]) ** 2).sum(), rel=1e-9)

    def test_zero_on_identical(self):
        x = np.random.default_rng(1).random((3, 8))
        d = pairwise_sq_l2(x, x)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-9)

    def test_never_negative(self):
        rng = np.random.default_rng(2)
        x = rng.random((50, 16)) * 1e6  # catastrophic-cancellation regime
        assert (pairwise_sq_l2(x, x) >= 0).all()

    def test_single_vector_promotion(self):
        d = pairwise_sq_l2(np.ones(4), np.zeros(4))
        assert d.shape == (1, 1) and d[0, 0] == pytest.approx(4.0)

    def test_blocked_norms_keep_every_sum(self):
        """Row norms formed a block of rows at a time equal the one-shot
        formula bit for bit, for inputs of several blocks."""
        rng = np.random.default_rng(3)
        for dim in (3, 32, 128):
            x, y = rng.random((4, dim)) * 255, rng.random((3 * (1 << 15) // dim + 5, dim)) * 255
            for a, b in ((x, y), (y, x)):
                want = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
                np.testing.assert_array_equal(pairwise_sq_l2(a, b), np.maximum(want, 0.0))

    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=3),
        st.lists(st.floats(-100, 100), min_size=3, max_size=3),
    )
    @settings(max_examples=50)
    def test_symmetry(self, a, b):
        a, b = np.array(a), np.array(b)
        assert pairwise_sq_l2(a, b)[0, 0] == pytest.approx(pairwise_sq_l2(b, a)[0, 0])


class TestTopK:
    def test_sorted_ascending(self):
        d = np.array([5.0, 1.0, 3.0, 0.5, 9.0])
        np.testing.assert_array_equal(topk_indices(d, 3), [3, 1, 2])

    def test_k_larger_than_n(self):
        d = np.array([2.0, 1.0])
        np.testing.assert_array_equal(topk_indices(d, 10), [1, 0])

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=40), st.integers(0, 12))
    @settings(max_examples=200)
    def test_ties_broken_by_index(self, values, k):
        """ORDER BY dist, id, also for a tie at the k-th value."""
        d = np.array(values, dtype=np.float64)
        expect = np.lexsort((np.arange(len(d)), d))[:k]
        np.testing.assert_array_equal(topk_indices(d, k), expect)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50), st.integers(1, 10))
    @settings(max_examples=50)
    def test_returns_true_minima(self, values, k):
        d = np.array(values)
        idx = topk_indices(d, k)
        assert len(idx) == min(k, len(d))
        # every returned value ≤ every non-returned value
        rest = np.setdiff1d(np.arange(len(d)), idx)
        if len(rest):
            assert d[idx].max() <= d[rest].min()


class TestTopKPerRow:
    @given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 30), st.integers(0, 12))
    @settings(max_examples=100)
    def test_matches_each_row_sorted(self, seed, n, m, k):
        """Tie-heavy rows with absent (+inf) entries: each row gives its
        finite entries in (value, column) order, cut at k."""
        rng = np.random.default_rng(seed)
        d = rng.integers(0, 4, (n, m)).astype(np.float64)
        d[rng.random((n, m)) < 0.3] = np.inf
        rows, cols = topk_per_row(d, k)
        expect = [np.lexsort((np.arange(m), row))[: min(k, np.isfinite(row).sum())] for row in d]
        np.testing.assert_array_equal(rows, np.repeat(np.arange(n), [len(e) for e in expect]))
        np.testing.assert_array_equal(cols, np.concatenate(expect))
