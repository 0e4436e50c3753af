"""Integration tests for the SPFresh engine (paper §3.2–§3.4, §4)."""
import numpy as np
import pytest

from repro.baselines.spann_plus import build_spann_plus, spann_plus_config
from repro.core.distances import pairwise_sq_l2
from repro.core.spfresh import SPFreshConfig, SPFreshIndex
from repro.synth_data import clustered_vectors, ground_truth_knn


def small_config(**kw) -> SPFreshConfig:
    base = dict(dim=16, split_limit=48, merge_limit=4, reassign_range=4, nprobe=8, seed=0)
    base.update(kw)
    return SPFreshConfig(**base)


@pytest.fixture(scope="module")
def built():
    vecs = clustered_vectors(n=2000, dim=16, n_clusters=16, seed=0)
    idx = SPFreshIndex.build(vecs, np.arange(2000), small_config())
    return idx, vecs


class TestBuild:
    def test_all_postings_under_split_limit(self, built):
        idx, _ = built
        assert max(idx.posting_lengths().values()) <= idx.config.split_limit + 3

    def test_every_vector_stored_in_nearest_posting(self, built):
        """NPA at build: each vector's primary posting is its nearest centroid."""
        idx, vecs = built
        alive = idx.centroid_index.alive_ids
        cents = idx.centroid_index.centroids(alive)
        nearest = alive[pairwise_sq_l2(vecs, cents).argmin(axis=1)]
        membership: dict[int, set] = {}
        for pid in idx.controller.posting_ids:
            p, _ = idx.controller.get(pid)
            for v in p.vids:
                membership.setdefault(int(v), set()).add(pid)
        for vid in range(len(vecs)):
            assert int(nearest[vid]) in membership[vid]

    def test_replication_factor_in_range(self, built):
        idx, vecs = built
        total = sum(idx.posting_lengths().values())
        rho = total / len(vecs)
        assert 1.0 <= rho <= idx.config.max_replicas

    def test_deterministic(self):
        vecs = clustered_vectors(n=500, dim=8, n_clusters=8, seed=1)
        a = SPFreshIndex.build(vecs, np.arange(500), small_config(dim=8))
        b = SPFreshIndex.build(vecs, np.arange(500), small_config(dim=8))
        assert a.posting_lengths() == b.posting_lengths()


class TestSearch:
    def test_recall_on_static_index(self, built):
        idx, vecs = built
        qs = clustered_vectors(n=50, dim=16, n_clusters=16, seed=9)
        gt = ground_truth_knn(vecs, qs, 10)
        hits = sum(
            len(np.intersect1d(idx.search(q, 10)[0], gt[i])) for i, q in enumerate(qs)
        )
        assert hits / 500 >= 0.9

    def test_search_returns_latency(self, built):
        idx, vecs = built
        ids, lat = idx.search(vecs[0], 5)
        assert len(ids) == 5 and lat > 0

    def test_deleted_vector_never_returned(self):
        vecs = clustered_vectors(n=300, dim=8, n_clusters=4, seed=2)
        idx = SPFreshIndex.build(vecs, np.arange(300), small_config(dim=8))
        target = 7
        assert target in idx.search(vecs[target], 5)[0]
        idx.delete(target)
        assert target not in idx.search(vecs[target], 5)[0]

    def test_inserted_vector_is_recalled(self):
        vecs = clustered_vectors(n=300, dim=8, n_clusters=4, seed=3)
        idx = SPFreshIndex.build(vecs, np.arange(300), small_config(dim=8))
        new = clustered_vectors(n=1, dim=8, n_clusters=4, seed=4)[0]
        idx.insert(999, new)
        assert 999 in idx.search(new, 3)[0]

    def test_no_duplicate_vids_in_results(self, built):
        idx, vecs = built
        ids, _ = idx.search(vecs[0], 10)
        assert len(ids) == len(set(ids.tolist()))


class TestSplit:
    def test_split_triggered_and_bounded(self):
        vecs = clustered_vectors(n=500, dim=8, n_clusters=4, seed=5)
        idx = SPFreshIndex.build(vecs, np.arange(500), small_config(dim=8))
        new = clustered_vectors(n=300, dim=8, n_clusters=4, seed=6)
        idx.insert_batch(np.arange(500, 800), new)
        idx.process_jobs()
        assert idx.stats.splits > 0
        assert max(idx.posting_lengths().values()) <= idx.config.split_limit

    def test_split_preserves_live_vectors(self):
        vecs = clustered_vectors(n=400, dim=8, n_clusters=4, seed=7)
        idx = SPFreshIndex.build(vecs, np.arange(400), small_config(dim=8))
        new = clustered_vectors(n=200, dim=8, n_clusters=4, seed=8)
        idx.insert_batch(np.arange(400, 600), new)
        idx.process_jobs()
        stored = set()
        for pid in idx.controller.posting_ids:
            p, _ = idx.controller.get(pid)
            live = idx._live(p)
            stored.update(int(v) for v in live.vids)
        assert stored == set(range(600))

    def test_centroid_count_grows_by_one_per_split(self):
        """Convergence property 2 (§3.4): |C_{i+1}| = |C_i| + 1."""
        vecs = clustered_vectors(n=400, dim=8, n_clusters=4, seed=9)
        idx = SPFreshIndex.build(vecs, np.arange(400), small_config(dim=8))
        before = len(idx.centroid_index)
        new = clustered_vectors(n=200, dim=8, n_clusters=4, seed=10)
        idx.insert_batch(np.arange(400, 600), new)
        idx.process_jobs()
        merges = idx.stats.merges
        assert len(idx.centroid_index) == before + idx.stats.splits - merges

    def test_split_reassign_converges(self):
        """§3.4: the job queue must drain in finitely many steps."""
        vecs = clustered_vectors(n=300, dim=8, n_clusters=2, seed=11)
        idx = SPFreshIndex.build(vecs, np.arange(300), small_config(dim=8))
        new = clustered_vectors(n=600, dim=8, n_clusters=2, seed=12)
        idx.insert_batch(np.arange(300, 900), new)
        ran = idx.process_jobs(max_jobs=100_000)
        assert len(idx.jobs) == 0 and ran < 100_000

    def test_gc_only_when_under_limit_after_cleanup(self):
        vecs = clustered_vectors(n=300, dim=8, n_clusters=4, seed=13)
        idx = SPFreshIndex.build(vecs, np.arange(300), small_config(dim=8))
        # delete most of a posting, then overfill it with stale replicas:
        pid = idx.controller.posting_ids[0]
        p, _ = idx.controller.get(pid)
        for v in p.vids:
            idx.delete(int(v))
        splits_before = idx.stats.splits
        idx.jobs.append(("split", pid, 0))
        idx.process_jobs()
        assert idx.stats.splits == splits_before  # GC sufficed, no split


class TestReassign:
    def test_reassign_restores_npa_quality(self):
        cfg = small_config(dim=8, reassign_range=8)
        vecs = clustered_vectors(n=500, dim=8, n_clusters=4, seed=14)
        idx = SPFreshIndex.build(vecs, np.arange(500), cfg)
        new = clustered_vectors(n=400, dim=8, n_clusters=4, seed=15)
        idx.insert_batch(np.arange(500, 900), new)
        idx.process_jobs()
        # After rebalance, every live vector's nearest centroid must hold
        # a replica of it (the NPA invariant LIRE maintains).
        alive = idx.centroid_index.alive_ids
        cents = idx.centroid_index.centroids(alive)
        membership: dict[int, set] = {}
        for pid in idx.controller.posting_ids:
            p, _ = idx.controller.get(pid)
            live = idx._live(p)
            for v in live.vids:
                membership.setdefault(int(v), set()).add(pid)
        viol = 0
        for vid, vec in idx._vecs.items():
            nearest = int(alive[pairwise_sq_l2(vec[None, :], cents)[0].argmin()])
            if nearest not in membership.get(vid, set()):
                viol += 1
        assert viol / len(idx._vecs) < 0.02  # near-perfect NPA compliance

    def test_reassign_stats_counted(self):
        vecs = clustered_vectors(n=500, dim=8, n_clusters=4, seed=16)
        idx = SPFreshIndex.build(vecs, np.arange(500), small_config(dim=8))
        idx.insert_batch(np.arange(500, 800), clustered_vectors(n=300, dim=8, n_clusters=4, seed=17))
        idx.process_jobs()
        s = idx.stats
        assert s.reassign_jobs > 0
        assert s.reassign_evaluated >= s.reassign_moved

    def test_reassign_disabled_flag(self):
        cfg = small_config(dim=8, reassign=False)
        vecs = clustered_vectors(n=500, dim=8, n_clusters=4, seed=18)
        idx = SPFreshIndex.build(vecs, np.arange(500), cfg)
        idx.insert_batch(np.arange(500, 800), clustered_vectors(n=300, dim=8, n_clusters=4, seed=19))
        idx.process_jobs()
        assert idx.stats.splits > 0 and idx.stats.reassign_moved == 0


class TestMerge:
    def test_merge_removes_undersized_posting(self):
        vecs = clustered_vectors(n=400, dim=8, n_clusters=4, seed=20)
        idx = SPFreshIndex.build(vecs, np.arange(400), small_config(dim=8))
        n_before = len(idx.centroid_index)
        # delete ~80% to create undersized postings, then search to trigger
        rng = np.random.default_rng(0)
        for v in rng.choice(400, 320, replace=False):
            idx.delete(int(v))
        for q in vecs[::10]:
            idx.search(q, 5)
        idx.process_jobs()
        assert idx.stats.merges > 0
        assert len(idx.centroid_index) < n_before

    def test_merge_preserves_live_vectors(self):
        vecs = clustered_vectors(n=400, dim=8, n_clusters=4, seed=21)
        idx = SPFreshIndex.build(vecs, np.arange(400), small_config(dim=8))
        deleted = set(range(0, 300))
        for v in deleted:
            idx.delete(v)
        for q in vecs[::5]:
            idx.search(q, 5)
        idx.process_jobs()
        stored = set()
        for pid in idx.controller.posting_ids:
            p, _ = idx.controller.get(pid)
            stored.update(int(v) for v in idx._live(p).vids)
        assert stored == set(range(300, 400))


class TestSpannPlus:
    def test_config_disables_rebalancer(self):
        cfg = spann_plus_config(small_config())
        assert not cfg.rebalance

    def test_postings_grow_unbounded(self):
        vecs = clustered_vectors(n=500, dim=8, n_clusters=4, seed=22)
        idx = build_spann_plus(vecs, np.arange(500), small_config(dim=8))
        idx.insert_batch(np.arange(500, 1100), clustered_vectors(n=600, dim=8, n_clusters=4, seed=23))
        idx.process_jobs()
        assert idx.stats.splits == 0
        assert max(idx.posting_lengths().values()) > idx.config.split_limit

    def test_gc_still_prunes_stale(self):
        vecs = clustered_vectors(n=500, dim=8, n_clusters=4, seed=24)
        idx = build_spann_plus(vecs, np.arange(500), small_config(dim=8))
        for v in range(250):
            idx.delete(v)
        idx.insert_batch(
            np.arange(500, 1200), clustered_vectors(n=700, dim=8, n_clusters=4, seed=25)
        )
        before = sum(idx.posting_lengths().values())
        idx.process_jobs()
        assert idx.stats.gc_rewrites > 0
        assert sum(idx.posting_lengths().values()) < before


class TestResourceModel:
    def test_memory_components_positive(self, built):
        idx, _ = built
        assert idx.memory_bytes() > 0
        assert idx.version_map.memory_bytes() == 2000

    def test_memory_grows_with_splits(self):
        vecs = clustered_vectors(n=500, dim=8, n_clusters=4, seed=26)
        idx = SPFreshIndex.build(vecs, np.arange(500), small_config(dim=8))
        m0 = idx.memory_bytes()
        idx.insert_batch(np.arange(500, 900), clustered_vectors(n=400, dim=8, n_clusters=4, seed=27))
        idx.process_jobs()
        assert idx.memory_bytes() > m0

    def test_foreground_background_io_separated(self):
        vecs = clustered_vectors(n=500, dim=8, n_clusters=4, seed=28)
        idx = SPFreshIndex.build(vecs, np.arange(500), small_config(dim=8))
        idx.insert_batch(np.arange(500, 800), clustered_vectors(n=300, dim=8, n_clusters=4, seed=29))
        fg = idx.stats.foreground_io_us
        idx.process_jobs()
        assert fg > 0 and idx.stats.background_io_us > 0
        assert idx.stats.foreground_io_us == fg  # background work not billed to foreground
