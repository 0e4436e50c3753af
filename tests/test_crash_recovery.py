"""Crash-recovery integration tests (paper §4.4): snapshot + WAL replay.

A "crash" drops every live in-memory object; recovery loads the latest
snapshot and replays the WAL. For the core engine the snapshot is the
pickled engine (its state is exactly the paper's in-memory structures +
simulated disk); for the Spark engine it is the metadata ``commit`` (the
pickled index, without posting rows) plus the Parquet dataset generation,
whose append-only rows are idempotent under replay: the one live filter,
``SPFreshIndex.live_rows``, dedupes on (pid, vid), and reads the rows of a
vid whose registration the crash lost as stale until the replay.
"""
import pickle
from collections import Counter

import numpy as np
import pytest

from repro.blockstore.wal import RecoveryLog
from repro.core.spfresh import SPFreshConfig, SPFreshIndex
from repro.spark_index import search as sp_search
from repro.spark_index.engine import (
    build_index, commit, insert_batch, live_rows, live_sizes, load_index, rebalance,
)
from repro.synth_data import clustered_vectors


def delete(idx: SPFreshIndex, vids) -> None:
    for v in vids:
        idx.delete(int(v))


def cfg(**kw) -> SPFreshConfig:
    base = dict(dim=8, split_limit=32, merge_limit=3, reassign_range=4, nprobe=6, seed=0)
    base.update(kw)
    return SPFreshConfig(**base)


class TestCoreEngineRecovery:
    def _updates(self):
        new = clustered_vectors(n=60, dim=8, n_clusters=8, seed=3)
        return [("insert", 1000 + i, new[i]) for i in range(60)] + [
            ("delete", i) for i in range(0, 30)
        ]

    def _apply(self, idx: SPFreshIndex, rec) -> None:
        if rec[0] == "insert":
            idx.insert(rec[1], rec[2])
        else:
            idx.delete(rec[1])

    @pytest.fixture()
    def recovered_pair(self, tmp_path):
        vecs = clustered_vectors(n=500, dim=8, n_clusters=8, seed=0)
        idx = SPFreshIndex.build(vecs, np.arange(500), cfg())
        log = RecoveryLog(str(tmp_path / "wal"))
        log.snapshot(pickle.dumps(idx))
        for rec in self._updates():
            log.log(rec)
            self._apply(idx, rec)
        idx.process_jobs()
        # crash: recover a second instance purely from snapshot + WAL
        state, records = RecoveryLog(str(tmp_path / "wal")).recover()
        idx2 = pickle.loads(state)
        for rec in records:
            self._apply(idx2, rec)
        idx2.process_jobs()
        return idx, idx2

    def test_search_results_identical(self, recovered_pair):
        idx, idx2 = recovered_pair
        qs = clustered_vectors(n=25, dim=8, n_clusters=8, seed=5)
        for q in qs:
            a, _ = idx.search(q, 10)
            b, _ = idx2.search(q, 10)
            np.testing.assert_array_equal(a, b)

    def test_posting_state_identical(self, recovered_pair):
        idx, idx2 = recovered_pair
        assert idx.posting_lengths() == idx2.posting_lengths()
        assert len(idx.centroid_index) == len(idx2.centroid_index)

    def test_stats_replay_consistent(self, recovered_pair):
        idx, idx2 = recovered_pair
        assert idx2.stats.splits == idx.stats.splits

    def test_wal_snapshot_boundary(self, tmp_path):
        """Updates before the snapshot must not be replayed."""
        vecs = clustered_vectors(n=200, dim=8, n_clusters=4, seed=1)
        idx = SPFreshIndex.build(vecs, np.arange(200), cfg())
        log = RecoveryLog(str(tmp_path / "wal2"))
        log.log(("delete", 0))  # pre-snapshot record
        idx.delete(0)
        log.snapshot(pickle.dumps(idx))
        state, records = RecoveryLog(str(tmp_path / "wal2")).recover()
        assert records == []
        idx2 = pickle.loads(state)
        assert idx2.version_map.is_deleted(0)


class TestSparkEngineRecovery:
    def test_recovery_reproduces_search(self, spark, tmp_path):
        vecs = clustered_vectors(n=400, dim=8, n_clusters=8, seed=0).astype(np.float64)
        root = str(tmp_path / "idx")
        st = build_index(spark, vecs, np.arange(400), cfg(), root)
        log = RecoveryLog(str(tmp_path / "wal"))
        commit(st)
        log.snapshot({"root": root})
        new = clustered_vectors(n=40, dim=8, n_clusters=8, seed=7).astype(np.float64)
        log.log(("insert", np.arange(2000, 2040), new))
        insert_batch(st, np.arange(2000, 2040), new)
        log.log(("delete", np.arange(0, 20)))
        delete(st, np.arange(0, 20))
        qs = clustered_vectors(n=10, dim=8, n_clusters=8, seed=8).astype(np.float64)
        before = sp_search.search_topk(st, qs, k=5).toPandas().sort_values(["qid", "rnk"])
        # crash: load the index from disk, replay the WAL
        st2 = load_index(spark, root)
        _, records = RecoveryLog(str(tmp_path / "wal")).recover()
        for rec in records:
            if rec[0] == "insert":
                insert_batch(st2, rec[1], rec[2])
            else:
                delete(st2, rec[1])
        after = sp_search.search_topk(st2, qs, k=5).toPandas().sort_values(["qid", "rnk"])
        np.testing.assert_array_equal(
            before[["qid", "vid", "rnk"]].to_numpy(), after[["qid", "vid", "rnk"]].to_numpy()
        )

    def test_replayed_appends_are_idempotent_in_live_view(self, spark, tmp_path):
        """Replaying an insert that already reached Parquet before the
        crash double-appends rows; the live filter's (pid, vid) dedupe
        absorbs it."""
        vecs = clustered_vectors(n=200, dim=8, n_clusters=4, seed=2).astype(np.float64)
        root = str(tmp_path / "idx2")
        st = build_index(spark, vecs, np.arange(200), cfg(), root)
        new = clustered_vectors(n=5, dim=8, n_clusters=4, seed=9).astype(np.float64)
        insert_batch(st, np.arange(900, 905), new)
        # crash before the metadata commit: the reloaded version map lacks
        # 900..904, and replaying the insert appends their rows again
        st2 = load_index(spark, root)
        insert_batch(st2, np.arange(900, 905), new)
        stored = st2.controller.postings_df().where("vid >= 900").groupBy("pid", "vid").count().toPandas()
        assert (stored["count"] == 2).all()
        pids, n_live, rows = live_rows(st2)
        counts = Counter(zip(np.repeat(pids, n_live).tolist(), rows.vids.tolist()))
        assert set(counts.values()) == {1}
        assert set(rows.vids.tolist()) == set(range(200)) | set(range(900, 905))

    def test_rebalance_after_recovery_converges(self, spark, tmp_path):
        vecs = clustered_vectors(n=300, dim=8, n_clusters=4, seed=4).astype(np.float64)
        root = str(tmp_path / "idx3")
        st = build_index(spark, vecs, np.arange(300), cfg(), root)
        new = clustered_vectors(n=120, dim=8, n_clusters=4, seed=10).astype(np.float64)
        insert_batch(st, np.arange(3000, 3120), new)
        st2 = load_index(spark, root)  # crash before rebalance
        insert_batch(st2, np.arange(3000, 3120), new)  # WAL replay
        rebalance(st2)
        assert max(live_sizes(st2).values()) <= st2.config.split_limit
        _, _, rows = live_rows(st2)
        assert set(rows.vids.tolist()) == set(range(300)) | set(range(3000, 3120))

    def test_rows_of_vids_a_crash_unregistered_are_stale(self, spark, tmp_path):
        """An insert batch flushed its rows, then a crash lost the commit
        that registered its vids, which lie past the reloaded version map's
        capacity. Until the WAL replays the insert, those rows are stale: a
        search that reads them and a rebalance whose split jobs and
        compaction read them raise nothing and return none of those vids.
        After the replay a search finds each one."""
        vecs = clustered_vectors(n=300, dim=8, n_clusters=4, seed=4).astype(np.float64)
        root = str(tmp_path / "idx4")
        st = build_index(spark, vecs, np.arange(300), cfg(), root)
        more = clustered_vectors(n=120, dim=8, n_clusters=4, seed=10).astype(np.float64)
        insert_batch(st, np.arange(300, 420), more)  # past the split limit
        commit(st)
        assert st.jobs
        new = more[:20] + np.random.default_rng(11).normal(0, 0.5, (20, 8))  # in split postings
        lost = np.arange(3000, 3020)
        insert_batch(st, lost, new)
        st2 = load_index(spark, root)  # crash before the next commit
        for res in sp_search.search_results_matrix(st2, new, k=10):
            assert not set(res.tolist()) & set(lost.tolist())
        assert rebalance(st2).splits > 0
        _, _, rows = live_rows(st2)
        assert set(rows.vids.tolist()) == set(range(420))
        insert_batch(st2, lost, new)  # WAL replay
        for vid, res in zip(lost, sp_search.search_results_matrix(st2, new, k=3)):
            assert vid in res
