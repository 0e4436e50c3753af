"""Spark dataflow SPFresh tests, oracle-checked against DuckDB.

Every relational claim of the Spark pipeline (probe selection, live-row
semantics, full clustered search) is verified by running the equivalent
SQL on DuckDB over the same input tables via ``repro.oracle``.
"""
import os
from pathlib import Path

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.spann_plus import spann_plus_config
from repro.core.lire import closure_assign
from repro.core.spfresh import SPFreshConfig, SPFreshIndex
from repro.oracle import assert_equivalent
from repro.spark_index import search as sp_search
from repro.spark_index import updater
from repro.spark_index.build import build_index
from repro.spark_index.rebalancer import compact, rebalance
from repro.spark_index.store import SparkPostingStore
from repro.synth_data import clustered_vectors, ground_truth_knn


def small_cfg(**kw) -> SPFreshConfig:
    base = dict(dim=8, split_limit=32, merge_limit=3, reassign_range=4, nprobe=6, seed=0)
    base.update(kw)
    return SPFreshConfig(**base)


@pytest.fixture(scope="module")
def base_data():
    vecs = clustered_vectors(n=800, dim=8, n_clusters=8, seed=0).astype(np.float64)
    return vecs, np.arange(800, dtype=np.int64)


@pytest.fixture(scope="module")
def store(spark, base_data, tmp_path_factory):
    vecs, vids = base_data
    root = str(tmp_path_factory.mktemp("spfresh_idx"))
    return build_index(spark, vecs, vids, small_cfg(), root)


def parquet_files(store) -> dict[str, bytes]:
    """The current dataset generation's Parquet files, by relative path."""
    root = Path(store.postings_path)
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*.parquet")}


def oracle_tables(store, queries=None):
    tables = {
        "postings": store.postings_df().toPandas(),
        "versions": store.versions_df().toPandas(),
        "centroids": store.centroids_df().toPandas(),
    }
    if queries is not None:
        tables["queries"] = pd.DataFrame(
            {
                "qid": np.arange(len(queries), dtype=np.int64),
                "qvec": [q.tolist() for q in np.asarray(queries, dtype=np.float64)],
            }
        )
    return tables


class TestBuild:
    def test_posting_sizes_bounded(self, store):
        sizes = store.live_sizes()
        assert sizes["n_live"].max() <= store.config.split_limit

    def test_every_vector_present(self, store, base_data):
        vecs, vids = base_data
        live = store.live_df().toPandas()
        assert set(live["vid"].unique()) == set(vids.tolist())

    def test_primary_assignment_is_npa_oracle(self, spark, store, base_data):
        """The nearest-centroid assignment of every stored vector, checked
        against a DuckDB argmin over the same centroid table."""
        vecs, vids = base_data
        spark_primary = sp_search.probe_postings(
            sp_search.queries_df(store, vecs), store.centroids_df(), nprobe=1
        ).select(F.col("qid").alias("vid"), F.col("pid").alias("primary_pid"))
        sql = """
        SELECT vid, primary_pid FROM (
            SELECT q.qid AS vid, c.pid AS primary_pid,
                   row_number() OVER (
                       PARTITION BY q.qid
                       ORDER BY list_distance(q.qvec, c.cvec) ** 2, c.pid
                   ) AS rnk
            FROM queries q CROSS JOIN centroids c
        ) WHERE rnk = 1
        """
        assert_equivalent(spark_primary, sql, **oracle_tables(store, queries=vecs))

    def test_primary_posting_holds_vector(self, store, base_data):
        vecs, vids = base_data
        alive = store.centroid_index.alive_ids
        cents = store.centroid_index.centroids(alive)
        _, nearest = closure_assign(vecs, cents, max_replicas=1, eps=0.0)
        primary = dict(zip(vids.tolist(), alive[nearest].tolist()))
        live = store.live_df().toPandas()
        member = live.groupby("vid")["pid"].apply(set).to_dict()
        assert all(primary[v] in member[v] for v in primary)

    def test_metadata_persisted(self, spark, store):
        loaded = SparkPostingStore.load(spark, store.root)
        assert len(loaded.centroid_index) == len(store.centroid_index)
        assert loaded.version_map.memory_bytes() == store.version_map.memory_bytes()


class TestLiveSemantics:
    def test_tombstoned_vid_excluded(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(spark, vecs[:200], vids[:200], small_cfg(), str(tmp_path / "t1"))
        updater.delete_batch(st, np.array([5, 6]))
        live = st.live_df().toPandas()
        assert not set(live["vid"]) & {5, 6}

    def test_live_df_matches_oracle(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(spark, vecs[:300], vids[:300], small_cfg(), str(tmp_path / "t2"))
        updater.delete_batch(st, np.arange(0, 50))
        spark_live = st.live_df().select("pid", "vid", "version")
        sql = """
        SELECT DISTINCT p.pid, p.vid, p.version
        FROM postings p
        JOIN versions v ON p.vid = v.vid
        JOIN centroids c ON p.pid = c.pid
        WHERE p.version = v.cur_version AND NOT v.deleted
        """
        assert_equivalent(spark_live, sql, **oracle_tables(st))

    def test_stale_version_excluded_after_reassign(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(spark, vecs[:300], vids[:300], small_cfg(), str(tmp_path / "t3"))
        st.version_map.bump_cas(7, 0)  # simulate a reassign that moved vid 7
        live = st.live_df().toPandas()
        assert 7 not in set(live["vid"])  # its on-disk rows are version 0


class TestSearch:
    def test_search_matches_duckdb_twin(self, spark, store):
        """Full clustered-search equivalence: Spark plan vs DuckDB SQL."""
        qs = clustered_vectors(n=15, dim=8, n_clusters=8, seed=9).astype(np.float64)
        got = sp_search.search_topk(store, qs, k=10)
        sql = sp_search.duckdb_twin_sql(store.config.nprobe, 10)
        assert_equivalent(got, sql, **oracle_tables(store, queries=qs))

    def test_search_recall(self, store, base_data):
        vecs, vids = base_data
        qs = clustered_vectors(n=20, dim=8, n_clusters=8, seed=10).astype(np.float64)
        res = sp_search.search_results_matrix(store, qs, k=10)
        gt = ground_truth_knn(vecs, qs, 10)
        rec = np.mean([len(np.intersect1d(res[i], gt[i])) / 10 for i in range(20)])
        assert rec >= 0.8

    def test_search_after_updates_matches_twin(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(spark, vecs[:400], vids[:400], small_cfg(), str(tmp_path / "t4"))
        new = clustered_vectors(n=60, dim=8, n_clusters=8, seed=11).astype(np.float64)
        updater.insert_batch(st, np.arange(1000, 1060), new)
        updater.delete_batch(st, np.arange(0, 40))
        rebalance(st)
        qs = clustered_vectors(n=10, dim=8, n_clusters=8, seed=12).astype(np.float64)
        got = sp_search.search_topk(st, qs, k=5)
        sql = sp_search.duckdb_twin_sql(st.config.nprobe, 5)
        assert_equivalent(got, sql, **oracle_tables(st, queries=qs))

    def test_new_vector_found(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(spark, vecs[:200], vids[:200], small_cfg(), str(tmp_path / "t5"))
        new = clustered_vectors(n=1, dim=8, n_clusters=8, seed=13).astype(np.float64)
        updater.insert_batch(st, np.array([9999]), new)
        res = sp_search.search_results_matrix(st, new, k=3)
        assert 9999 in res[0]


class TestUpdater:
    def test_insert_primary_is_nearest(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(spark, vecs[:200], vids[:200], small_cfg(), str(tmp_path / "u1"))
        new = clustered_vectors(n=20, dim=8, n_clusters=8, seed=14).astype(np.float64)
        primary = updater.insert_batch(st, np.arange(2000, 2020), new)
        alive = st.centroid_index.alive_ids
        cents = st.centroid_index.centroids(alive)
        _, nearest = closure_assign(new, cents, max_replicas=1, eps=0.0)
        np.testing.assert_array_equal(primary, alive[nearest])

    def test_insert_appends_without_rewrite(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(spark, vecs[:200], vids[:200], small_cfg(), str(tmp_path / "u2"))
        gen, before = st._gen, parquet_files(st)
        updater.insert_batch(st, np.array([3000]), clustered_vectors(n=1, dim=8, seed=15).astype(np.float64))
        assert st._gen == gen  # append path never rewrites the dataset
        after = parquet_files(st)
        assert {f: after.get(f) for f in before} == before  # every old file kept, byte for byte
        assert len(after) > len(before)

    def test_delete_is_metadata_only(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(spark, vecs[:200], vids[:200], small_cfg(), str(tmp_path / "u3"))
        gen, before = st._gen, parquet_files(st)
        updater.delete_batch(st, np.arange(0, 20))
        assert st._gen == gen and parquet_files(st) == before

    def test_reinserted_vid_is_refused(self, spark, base_data, tmp_path):
        """A vid is registered once. Re-registering deleted vid 7 reset its
        version to 0, which made its old replicas, holding the old vector,
        live again; the whole batch is now refused before any of it lands."""
        vecs, vids = base_data
        st = build_index(spark, vecs[:200], vids[:200], small_cfg(), str(tmp_path / "u4"))
        updater.delete_batch(st, np.array([7]))
        gen, before = st._gen, parquet_files(st)
        far = np.vstack([vecs[8], vecs[7] + 100.0])
        with pytest.raises(ValueError):
            updater.insert_batch(st, np.array([3000, 7]), far)
        with pytest.raises(ValueError):
            updater.insert_batch(st, np.array([3001, 3001]), far)
        assert not st.version_map.contains(3000) and not st.version_map.contains(3001)
        assert st._gen == gen and parquet_files(st) == before
        res = sp_search.search_results_matrix(st, vecs[7:8], k=1)
        assert 7 not in res[0]


class TestRebalance:
    @pytest.fixture(scope="class")
    def rebalanced(self, spark, base_data, tmp_path_factory):
        vecs, vids = base_data
        st = build_index(
            spark, vecs, vids, small_cfg(), str(tmp_path_factory.mktemp("rb"))
        )
        new = clustered_vectors(n=250, dim=8, n_clusters=8, seed=16).astype(np.float64)
        updater.insert_batch(st, np.arange(5000, 5250), new)
        stats = rebalance(st)
        return st, stats

    def test_splits_happened(self, rebalanced):
        _, stats = rebalanced
        assert stats.splits > 0

    def test_sizes_bounded_after_rebalance(self, rebalanced):
        st, _ = rebalanced
        assert st.live_sizes()["n_live"].max() <= st.config.split_limit

    def test_no_vector_lost(self, rebalanced, base_data):
        st, _ = rebalanced
        live_vids = set(st.live_df().toPandas()["vid"].unique())
        assert live_vids == set(range(800)) | set(range(5000, 5250))

    def test_npa_mostly_restored(self, rebalanced, base_data):
        st, _ = rebalanced
        vecs, _ = base_data
        live = st.live_df().toPandas()
        member = live.groupby("vid")["pid"].apply(set).to_dict()
        alive = st.centroid_index.alive_ids
        cents = st.centroid_index.centroids(alive)
        all_vecs = {int(r["vid"]): np.asarray(r["vec"]) for _, r in live.iterrows()}
        viol = 0
        from repro.core.distances import pairwise_sq_l2

        for vid, vec in all_vecs.items():
            nearest = int(alive[pairwise_sq_l2(vec[None, :], cents)[0].argmin()])
            if nearest not in member[vid]:
                viol += 1
        assert viol / len(all_vecs) < 0.02

    def test_only_recorded_generation_kept(self, spark, rebalanced):
        st, _ = rebalanced
        gens = [n for n in os.listdir(st.root) if n.startswith("postings_v")]
        assert gens == [f"postings_v{st._gen}"]
        loaded = SparkPostingStore.load(spark, st.root)
        qs = clustered_vectors(n=10, dim=8, n_clusters=8, seed=30).astype(np.float64)
        for a, b in zip(
            sp_search.search_results_matrix(loaded, qs, k=5),
            sp_search.search_results_matrix(st, qs, k=5),
        ):
            np.testing.assert_array_equal(a, b)

    def test_merge_removes_undersized(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(spark, vecs[:400], vids[:400], small_cfg(), str(tmp_path / "m1"))
        n0 = len(st.centroid_index)
        updater.delete_batch(st, np.arange(0, 330))
        stats = rebalance(st)
        assert stats.merges > 0
        assert len(st.centroid_index) < n0
        live_vids = set(st.live_df().toPandas()["vid"].unique())
        assert live_vids == set(range(330, 400))

    def test_spann_plus_config_only_compacts(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(
            spark, vecs[:400], vids[:400], spann_plus_config(small_cfg()), str(tmp_path / "sp")
        )
        new = clustered_vectors(n=250, dim=8, n_clusters=8, seed=16).astype(np.float64)
        updater.insert_batch(st, np.arange(5000, 5250), new)
        updater.delete_batch(st, np.arange(0, 40))
        n_postings = len(st.centroid_index)
        stats = rebalance(st)
        assert (stats.splits, stats.merges, stats.reassign_moved) == (0, 0, 0)
        assert len(st.centroid_index) == n_postings
        assert st.live_sizes()["n_live"].max() > st.config.split_limit
        assert st.postings_df().count() == st.live_df().count()  # stale rows compacted
        live = np.arange(40, 400)
        res = sp_search.search_results_matrix(st, np.vstack([vecs[live], new]), k=3)
        for vid, r in zip(np.concatenate([live, np.arange(5000, 5250)]), res):
            assert vid in r

    def test_compact_drops_stale_rows(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(spark, vecs[:200], vids[:200], small_cfg(), str(tmp_path / "c1"))
        updater.delete_batch(st, np.arange(0, 100))
        before = st.postings_df().count()
        compact(st)
        after = st.postings_df().count()
        assert after < before
        live_vids = set(st.live_df().toPandas()["vid"].unique())
        assert live_vids == set(range(100, 200))


class TestCrossEngine:
    def test_build_matches_core_engine(self, spark, base_data, tmp_path):
        """Same data + same config ⇒ the Spark build and the core build
        produce identical posting contents (same clustering, same closure)."""
        vecs, vids = base_data
        cfg = small_cfg()
        st = build_index(spark, vecs[:300], vids[:300], cfg, str(tmp_path / "x1"))
        core = SPFreshIndex.build(vecs[:300].astype(np.float32), vids[:300], cfg)
        spark_members = list(
            st.live_df().toPandas().groupby("pid")["vid"].apply(frozenset)
        )
        core_members = []
        for pid in core.controller.posting_ids:
            p, _ = core.controller.get(pid)
            core_members.append(frozenset(int(v) for v in core._live(p).vids))
        # a closure build can leave a centroid with zero assigned vectors;
        # the Parquet dataset simply has no rows for it — drop empties
        core_members = [m for m in core_members if m]
        spark_members = [m for m in spark_members if m]
        assert sorted(spark_members, key=sorted) == sorted(core_members, key=sorted)

    def test_recall_parity_after_updates(self, spark, base_data, tmp_path):
        """After the same update stream, both engines keep recall within a
        small gap (they diverge in split order, not in index quality)."""
        vecs, vids = base_data
        cfg = small_cfg()
        st = build_index(spark, vecs[:400], vids[:400], cfg, str(tmp_path / "x2"))
        core = SPFreshIndex.build(vecs[:400].astype(np.float32), vids[:400], cfg)
        new = clustered_vectors(n=100, dim=8, n_clusters=8, seed=17).astype(np.float64)
        nvids = np.arange(7000, 7100)
        updater.insert_batch(st, nvids, new)
        rebalance(st)
        core.insert_batch(nvids, new.astype(np.float32))
        core.process_jobs()
        qs = clustered_vectors(n=20, dim=8, n_clusters=8, seed=18).astype(np.float64)
        all_vecs = np.vstack([vecs[:400], new])
        all_vids = np.concatenate([vids[:400], nvids])
        gt = all_vids[ground_truth_knn(all_vecs, qs, 10)]
        spark_res = sp_search.search_results_matrix(st, qs, k=10)
        rec_spark = np.mean([len(np.intersect1d(spark_res[i], gt[i])) / 10 for i in range(20)])
        rec_core = np.mean(
            [len(np.intersect1d(core.search(q, 10)[0], gt[i])) / 10 for i, q in enumerate(qs)]
        )
        assert abs(rec_spark - rec_core) < 0.08

    def test_split_and_reassign_round_matches_core_engine(self, spark, base_data, tmp_path):
        """One split-and-reassign round from the same build and the same
        insert batch leaves both engines with identical live postings and
        identical top-10 answers: every decision of the round is the
        planner's, so only storage and execution differ."""
        vecs, vids = base_data
        cfg = small_cfg()
        st = build_index(spark, vecs[:400], vids[:400], cfg, str(tmp_path / "x3"))
        core = SPFreshIndex.build(vecs[:400].astype(np.float32), vids[:400], cfg)
        # Overflow exactly one posting, the longest, with vectors close to
        # its centroid (their closure is that posting alone).
        sizes = core.posting_lengths()
        pid = max(sizes, key=sizes.get)
        n_new = cfg.split_limit - sizes[pid] + 6
        rng = np.random.default_rng(19)
        new = (core.centroid_index.centroid(pid) + rng.normal(0, 1.0, (n_new, 8))).astype(np.float32)
        nvids = np.arange(8000, 8000 + n_new)
        core.insert_batch(nvids, new)
        core.process_jobs()
        updater.insert_batch(st, nvids, new.astype(np.float64))
        stats = rebalance(st, max_rounds=1)
        assert core.stats.splits == stats.splits == 1
        assert core.stats.reassign_moved == stats.reassign_moved > 0
        assert st.live_sizes()["n_live"].max() <= cfg.split_limit  # no cascade pending

        spark_members = {
            int(p): sorted(g.tolist())
            for p, g in st.live_df().toPandas().groupby("pid")["vid"]
        }
        core_members = {}
        for p in core.controller.posting_ids:
            live = core._live(core.controller.get(p)[0])
            if len(live):
                core_members[p] = sorted(live.vids.tolist())
        assert spark_members == core_members

        qs = clustered_vectors(n=20, dim=8, n_clusters=8, seed=18).astype(np.float32)
        spark_res = sp_search.search_results_matrix(st, qs.astype(np.float64), k=10)
        for q, got in zip(qs, spark_res):
            np.testing.assert_array_equal(got, core.search(q, 10)[0])

