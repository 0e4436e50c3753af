"""Tests for the centroid navigator (SPTAG stand-in, §3.1/§4.1)."""
import numpy as np
import pytest

from repro.core.centroid_index import CentroidIndex
from repro.core.distances import pairwise_sq_l2


def rand_vecs(n, dim=8, seed=0):
    return np.random.default_rng(seed).random((n, dim)) * 100


class TestExactCentroidIndex:
    def test_add_returns_sequential_ids(self):
        idx = CentroidIndex(4)
        assert [idx.add(np.full(4, i)) for i in range(5)] == [0, 1, 2, 3, 4]

    def test_ids_never_reused_after_remove(self):
        idx = CentroidIndex(4)
        idx.add(np.zeros(4))
        idx.remove(0)
        assert idx.add(np.ones(4)) == 1

    def test_len_counts_alive(self):
        idx = CentroidIndex(4)
        for i in range(5):
            idx.add(np.full(4, i))
        idx.remove(2)
        assert len(idx) == 4
        assert 2 not in idx and 3 in idx

    def test_remove_twice_raises(self):
        idx = CentroidIndex(4)
        idx.add(np.zeros(4))
        idx.remove(0)
        with pytest.raises(KeyError):
            idx.remove(0)

    def test_centroid_of_removed_raises(self):
        idx = CentroidIndex(4)
        idx.add(np.zeros(4))
        idx.remove(0)
        with pytest.raises(KeyError):
            idx.centroid(0)

    def test_search_exact(self):
        vecs = rand_vecs(50)
        idx = CentroidIndex(8)
        for v in vecs:
            idx.add(v)
        q = rand_vecs(1, seed=9)[0]
        got = idx.search(q, 5)
        d = pairwise_sq_l2(q[None, :], vecs)[0]
        expect = np.argsort(d, kind="stable")[:5]
        np.testing.assert_array_equal(got, expect)

    def test_search_skips_removed(self):
        vecs = rand_vecs(10)
        idx = CentroidIndex(8)
        for v in vecs:
            idx.add(v)
        q = vecs[3]
        assert idx.search(q, 1)[0] == 3
        idx.remove(3)
        assert idx.search(q, 1)[0] != 3

    def test_search_batch_matches_single(self):
        vecs = rand_vecs(30)
        idx = CentroidIndex(8)
        for v in vecs:
            idx.add(v)
        qs = rand_vecs(5, seed=4)
        batch = idx.search_batch(qs, 3)
        for i, q in enumerate(qs):
            np.testing.assert_array_equal(batch[i], idx.search(q, 3))

    def test_growth_beyond_capacity(self):
        idx = CentroidIndex(4, capacity=2)
        for i in range(40):
            idx.add(np.full(4, i))
        assert len(idx) == 40

    def test_memory_model_grows(self):
        idx = CentroidIndex(16)
        m0 = idx.memory_bytes()
        for i in range(10):
            idx.add(np.zeros(16))
        assert idx.memory_bytes() == m0 + 10 * 16 * 4

