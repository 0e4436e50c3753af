"""Spark dataflow SPFresh tests, oracle-checked against DuckDB.

Every relational claim of the Spark engine (the driver's probe selection,
live-row semantics, full clustered search) is verified by running the
equivalent SQL on DuckDB over the same input tables via ``repro.oracle``.
DuckDB navigates in SQL over the centroid table, taken from the index's
centroid index, so the search twins also check the driver's navigation.
"""
import itertools
import os
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.spann_plus import spann_plus_config
from repro.core.distances import sq_norms
from repro.core.lire import closure_assign
from repro.core.spfresh import SEARCH_SLICE, SPFreshConfig, SPFreshIndex
from repro.oracle import assert_equivalent
from repro.spark_index import search as sp_search
from repro.spark_index.engine import (
    build_index, commit, compact, insert_batch, live_rows, live_sizes, load_index, rebalance,
)
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
def index(spark, base_data, tmp_path_factory):
    vecs, vids = base_data
    root = str(tmp_path_factory.mktemp("spfresh_idx"))
    return build_index(spark, vecs, vids, small_cfg(), root)


def delete(idx: SPFreshIndex, vids) -> None:
    """Tombstone each vid: the core's ``delete``, metadata only."""
    for v in vids:
        idx.delete(int(v))


def parquet_files(idx: SPFreshIndex) -> dict[str, bytes]:
    """The current dataset generation's Parquet files, by relative path."""
    root = Path(idx.controller.postings_path)
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*.parquet")}


def live_table(idx: SPFreshIndex) -> pd.DataFrame:
    """The index's live rows as (pid, vid, version, vec), from its one live
    filter (``engine.live_rows``: ``get_batch`` over every alive posting,
    then ``SPFreshIndex.live_rows``), on either engine's store."""
    pids, n_live, rows = live_rows(idx)
    return pd.DataFrame({
        "pid": np.repeat(np.asarray(pids, dtype=np.int64), n_live),
        "vid": rows.vids.astype(np.int64),
        "version": rows.versions.astype(np.int32),
        "vec": list(rows.vecs.astype(np.float64)),
    })


def live_postings(idx: SPFreshIndex) -> dict[int, list[int]]:
    """Every alive posting's live vids, sorted."""
    out = {int(p): [] for p in idx.centroid_index.alive_ids}
    for p, g in live_table(idx).groupby("pid")["vid"]:
        out[int(p)] = sorted(g.tolist())
    return out


def oracle_tables(idx, queries=None):
    alive = idx.centroid_index.alive_ids
    vids, versions, deleted = idx.version_map.entries()
    tables = {
        "postings": idx.controller.postings_df().toPandas(),
        "versions": pd.DataFrame(
            {"vid": vids, "cur_version": versions.astype(np.int32), "deleted": deleted}
        ),
        "centroids": pd.DataFrame(
            {"pid": alive, "cvec": idx.centroid_index.centroids(alive).tolist()}
        ),
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
    def test_posting_sizes_bounded(self, index):
        assert max(live_sizes(index).values()) <= index.config.split_limit

    def test_every_vector_present(self, index, base_data):
        vecs, vids = base_data
        live = live_table(index)
        assert set(live["vid"].unique()) == set(vids.tolist())

    def test_primary_assignment_is_npa_oracle(self, spark, index, base_data):
        """The driver's navigation of every stored vector to its nearest
        centroid, checked against a DuckDB argmin over the same centroid
        table."""
        vecs, vids = base_data
        nearest = index.centroid_index.search_batch(vecs, 1)[:, 0]
        spark_primary = spark.createDataFrame(
            pd.DataFrame({"vid": np.arange(len(vecs)), "primary_pid": nearest})
        )
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
        assert_equivalent(spark_primary, sql, **oracle_tables(index, queries=vecs))

    def test_primary_posting_holds_vector(self, index, base_data):
        vecs, vids = base_data
        alive = index.centroid_index.alive_ids
        cents = index.centroid_index.centroids(alive)
        _, nearest = closure_assign(vecs, cents, max_replicas=1, eps=0.0)
        primary = dict(zip(vids.tolist(), alive[nearest].tolist()))
        live = live_table(index)
        member = live.groupby("vid")["pid"].apply(set).to_dict()
        assert all(primary[v] in member[v] for v in primary)

    def test_metadata_persisted(self, spark, base_data, tmp_path):
        """A commit made with jobs queued loads back as the same index, from
        a copy of its directory: alive pids, posting lengths, version map,
        jobs and ``_pending``. Draining the loaded and the original index
        then leaves the same live postings."""
        vecs, vids = base_data
        root = tmp_path / "meta"
        st = build_index(spark, vecs[:300], vids[:300], small_cfg(), str(root))
        new = clustered_vectors(n=120, dim=8, n_clusters=8, seed=16).astype(np.float64)
        insert_batch(st, np.arange(5000, 5120), new)  # past the split limit
        delete(st, np.arange(0, 30))
        commit(st)
        assert st.jobs and st._pending
        shutil.copytree(root, tmp_path / "copy")
        loaded = load_index(spark, str(tmp_path / "copy"))
        np.testing.assert_array_equal(loaded.centroid_index.alive_ids, st.centroid_index.alive_ids)
        assert loaded.posting_lengths() == st.posting_lengths()
        for got, want in zip(loaded.version_map.entries(), st.version_map.entries()):
            np.testing.assert_array_equal(got, want)
        assert list(loaded.jobs) == list(st.jobs)
        assert loaded._pending == st._pending
        rebalance(loaded)
        rebalance(st)
        assert live_postings(loaded) == live_postings(st)


class TestLiveSemantics:
    def test_tombstoned_vid_excluded(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(spark, vecs[:200], vids[:200], small_cfg(), str(tmp_path / "t1"))
        delete(st, np.array([5, 6]))
        live = live_table(st)
        assert not set(live["vid"]) & {5, 6}

    def test_live_df_matches_oracle(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(spark, vecs[:300], vids[:300], small_cfg(), str(tmp_path / "t2"))
        delete(st, np.arange(0, 50))
        spark_live = spark.createDataFrame(live_table(st)[["pid", "vid", "version"]])
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
        st.version_map.bump_cas_many([7], [0])  # simulate a reassign that moved vid 7
        live = live_table(st)
        assert 7 not in set(live["vid"])  # its on-disk rows are version 0


class TestSearch:
    def test_search_matches_duckdb_twin(self, spark, index):
        """Full clustered-search equivalence: Spark plan vs DuckDB SQL."""
        qs = clustered_vectors(n=15, dim=8, n_clusters=8, seed=9).astype(np.float64)
        got = sp_search.search_topk(index, qs, k=10)
        sql = sp_search.duckdb_twin_sql(index.config.nprobe, 10)
        assert_equivalent(got, sql, **oracle_tables(index, queries=qs))

    def test_search_recall(self, index, base_data):
        vecs, vids = base_data
        qs = clustered_vectors(n=20, dim=8, n_clusters=8, seed=10).astype(np.float64)
        res = sp_search.search_results_matrix(index, qs, k=10)
        gt = ground_truth_knn(vecs, qs, 10)
        rec = np.mean([len(np.intersect1d(res[i], gt[i])) / 10 for i in range(20)])
        assert rec >= 0.8

    def test_search_after_updates_matches_twin(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(spark, vecs[:400], vids[:400], small_cfg(), str(tmp_path / "t4"))
        new = clustered_vectors(n=60, dim=8, n_clusters=8, seed=11).astype(np.float64)
        insert_batch(st, np.arange(1000, 1060), new)
        delete(st, np.arange(0, 40))
        rebalance(st)
        qs = clustered_vectors(n=10, dim=8, n_clusters=8, seed=12).astype(np.float64)
        got = sp_search.search_topk(st, qs, k=5)
        sql = sp_search.duckdb_twin_sql(st.config.nprobe, 5)
        assert_equivalent(got, sql, **oracle_tables(st, queries=qs))

    def test_slicing_does_not_change_answers(self, spark, base_data, tmp_path):
        """The Spark search reads a whole batch at once and scans it a slice
        of ``SEARCH_SLICE`` queries per task; the core ``search_batch``
        reads and scans slice by slice. On one churned index (a rebalance,
        then inserts, deletes and jobs drained with no compaction, so
        tombstoned rows and stale replicas stay in the store) their ids
        are equal bit for bit, on both sides of a slice boundary, and an
        empty batch has no answer on either."""
        vecs, vids = base_data
        st = build_index(spark, vecs[:400], vids[:400], small_cfg(), str(tmp_path / "s1"))
        insert_batch(st, np.arange(6000, 6150), clustered_vectors(
            n=150, dim=8, n_clusters=8, seed=21).astype(np.float64))
        delete(st, np.arange(0, 30))
        rebalance(st)
        insert_batch(st, np.arange(6150, 6300), clustered_vectors(
            n=150, dim=8, n_clusters=3, seed=22).astype(np.float64))
        delete(st, np.arange(30, 60))
        assert st.process_jobs() > 0 and st.stats.reassign_moved > 0
        assert sum(st.posting_lengths().values()) > len(live_table(st))  # dead rows kept
        qs = clustered_vectors(n=20, dim=8, n_clusters=8, seed=23).astype(np.float64)
        for n in (0, 1, SEARCH_SLICE, SEARCH_SLICE + 1, 20):
            spark_ids = sp_search.search_results_matrix(st, qs[:n], k=10)
            core_ids, _ = st.search_batch(qs[:n], 10)
            assert len(spark_ids) == len(core_ids) == n
            for got, want in zip(spark_ids, core_ids):
                assert got.dtype == want.dtype and len(got) == 10
                np.testing.assert_array_equal(got, want)

    def test_new_vector_found(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(spark, vecs[:200], vids[:200], small_cfg(), str(tmp_path / "t5"))
        new = clustered_vectors(n=1, dim=8, n_clusters=8, seed=13).astype(np.float64)
        insert_batch(st, np.array([9999]), new)
        res = sp_search.search_results_matrix(st, new, k=3)
        assert 9999 in res[0]


class TestUpdater:
    def test_insert_primary_is_nearest(self, spark, base_data, tmp_path):
        """Each inserted vector lands in the posting of its nearest centroid."""
        vecs, vids = base_data
        st = build_index(spark, vecs[:200], vids[:200], small_cfg(), str(tmp_path / "u1"))
        new = clustered_vectors(n=20, dim=8, n_clusters=8, seed=14).astype(np.float64)
        insert_batch(st, np.arange(2000, 2020), new)
        alive = st.centroid_index.alive_ids
        cents = st.centroid_index.centroids(alive)
        _, nearest = closure_assign(new, cents, max_replicas=1, eps=0.0)
        member = live_table(st).groupby("vid")["pid"].apply(set).to_dict()
        assert all(p in member[v] for v, p in zip(range(2000, 2020), alive[nearest].tolist()))

    def test_insert_appends_without_rewrite(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(spark, vecs[:200], vids[:200], small_cfg(), str(tmp_path / "u2"))
        gen, before = st.controller._gen, parquet_files(st)
        insert_batch(st, np.array([3000]), clustered_vectors(n=1, dim=8, seed=15).astype(np.float64))
        assert st.controller._gen == gen  # append path never rewrites the dataset
        after = parquet_files(st)
        assert {f: after.get(f) for f in before} == before  # every old file kept, byte for byte
        assert len(after) == len(before) + 1  # the batch's one Parquet append

    def test_get_batch_reads_both_writers_of_a_generation(self, spark, base_data, tmp_path):
        """After a compaction (which writes the generation's first file) and
        an insert batch (which appends one more), ``get_batch`` reads the
        rows that Spark reads."""
        vecs, vids = base_data
        st = build_index(spark, vecs[:300], vids[:300], small_cfg(), str(tmp_path / "w"))
        delete(st, np.arange(0, 30))
        compact(st)
        new = clustered_vectors(n=20, dim=8, n_clusters=8, seed=20).astype(np.float64)
        insert_batch(st, np.arange(4000, 4020), new)
        store = st.controller
        pids = [int(p) for p in st.centroid_index.alive_ids]
        batch, _ = store.get_batch([pids])
        rows = batch.rows
        got = Counter(zip(
            np.repeat(batch.pids, batch.lens).tolist(), rows.vids.tolist(),
            rows.versions.tolist(), map(tuple, rows.vecs.tolist()),
        ))
        spark_rows = store.postings_df().where(F.col("pid").isin(pids)).collect()
        assert got == Counter((r.pid, r.vid, r.version, tuple(r.vec)) for r in spark_rows)
        assert {4000, 4019, 30, 299} <= {v for _, v, _, _ in got}
        assert rows.vecs.shape == (len(rows), 8)

    def test_delete_is_metadata_only(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(spark, vecs[:200], vids[:200], small_cfg(), str(tmp_path / "u3"))
        gen, before = st.controller._gen, parquet_files(st)
        delete(st, np.arange(0, 20))
        assert st.controller._gen == gen and parquet_files(st) == before

    def test_reinserted_vid_is_refused(self, spark, base_data, tmp_path):
        """A vid is registered once. Re-registering deleted vid 7 reset its
        version to 0, which made its old replicas, holding the old vector,
        live again; the whole batch is now refused before any of it lands."""
        vecs, vids = base_data
        st = build_index(spark, vecs[:200], vids[:200], small_cfg(), str(tmp_path / "u4"))
        delete(st, np.array([7]))
        gen, before = st.controller._gen, parquet_files(st)
        far = np.vstack([vecs[8], vecs[7] + 100.0])
        with pytest.raises(ValueError):
            insert_batch(st, np.array([3000, 7]), far)
        with pytest.raises(ValueError):
            insert_batch(st, np.array([3001, 3001]), far)
        assert not st.version_map.contains(3000) and not st.version_map.contains(3001)
        assert st.controller._gen == gen and parquet_files(st) == before
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
        insert_batch(st, np.arange(5000, 5250), new)
        stats = rebalance(st)
        return st, stats

    def test_splits_happened(self, rebalanced):
        _, stats = rebalanced
        assert stats.splits > 0

    def test_sizes_bounded_after_rebalance(self, rebalanced):
        st, _ = rebalanced
        assert max(live_sizes(st).values()) <= st.config.split_limit

    def test_no_vector_lost(self, rebalanced, base_data):
        st, _ = rebalanced
        live_vids = set(live_table(st)["vid"])
        assert live_vids == set(range(800)) | set(range(5000, 5250))

    def test_npa_mostly_restored(self, rebalanced, base_data):
        st, _ = rebalanced
        vecs, _ = base_data
        live = live_table(st)
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
        gens = [n for n in os.listdir(st.controller.root) if n.startswith("postings_v")]
        assert gens == [f"postings_v{st.controller._gen}"]
        loaded = load_index(spark, st.controller.root)
        qs = clustered_vectors(n=10, dim=8, n_clusters=8, seed=30).astype(np.float64)
        for a, b in zip(
            sp_search.search_results_matrix(loaded, qs, k=5),
            sp_search.search_results_matrix(st, qs, k=5),
        ):
            np.testing.assert_array_equal(a, b)

    def test_merge_removes_undersized(self, spark, base_data, tmp_path):
        """Searches find the undersized postings, as on the core engine."""
        vecs, vids = base_data
        st = build_index(spark, vecs[:400], vids[:400], small_cfg(), str(tmp_path / "m1"))
        n0 = len(st.centroid_index)
        delete(st, np.arange(0, 330))
        sp_search.search_results_matrix(st, vecs[:400:10], k=5)
        stats = rebalance(st)
        assert stats.merges > 0
        assert len(st.centroid_index) < n0
        live_vids = set(live_table(st)["vid"])
        assert live_vids == set(range(330, 400))

    def test_spann_plus_config_only_compacts(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(
            spark, vecs[:400], vids[:400], spann_plus_config(small_cfg()), str(tmp_path / "sp")
        )
        new = clustered_vectors(n=250, dim=8, n_clusters=8, seed=16).astype(np.float64)
        insert_batch(st, np.arange(5000, 5250), new)
        delete(st, np.arange(0, 40))
        n_postings = len(st.centroid_index)
        stats = rebalance(st)
        assert (stats.splits, stats.merges, stats.reassign_moved) == (0, 0, 0)
        assert len(st.centroid_index) == n_postings
        assert max(live_sizes(st).values()) > st.config.split_limit
        assert st.controller.postings_df().count() == len(live_table(st))  # stale rows compacted
        live = np.arange(40, 400)
        res = sp_search.search_results_matrix(st, np.vstack([vecs[live], new]), k=3)
        for vid, r in zip(np.concatenate([live, np.arange(5000, 5250)]), res):
            assert vid in r

    def test_compact_drops_stale_rows(self, spark, base_data, tmp_path):
        vecs, vids = base_data
        st = build_index(spark, vecs[:200], vids[:200], small_cfg(), str(tmp_path / "c1"))
        delete(st, np.arange(0, 100))
        before = st.controller.postings_df().count()
        compact(st)
        after = st.controller.postings_df().count()
        assert after < before
        live_vids = set(live_table(st)["vid"])
        assert live_vids == set(range(100, 200))

    def test_compact_removes_a_crashed_compactions_leftover(self, spark, base_data, tmp_path):
        """A compaction that crashed before the commit recording it left a
        file in the next generation's directory. The next compaction
        removes it first: its generation is its one file of live rows, as
        both readers see, and no length changes."""
        vecs, vids = base_data
        st = build_index(spark, vecs[:200], vids[:200], small_cfg(), str(tmp_path / "c2"))
        delete(st, np.arange(0, 50))
        store, lengths = st.controller, st.posting_lengths()
        leftover = Path(store.root) / f"postings_v{store._gen + 1}"
        leftover.mkdir()
        for name, data in parquet_files(st).items():  # every row, deleted ones included
            (leftover / f"crashed-{name}").write_bytes(data)
        compact(st)
        assert store.postings_path == str(leftover) and len(parquet_files(st)) == 1
        assert st.posting_lengths() == lengths
        live = Counter(live_table(st)["vid"].tolist())
        assert set(live) == set(range(50, 200))
        batch, _ = store.get_batch([st.centroid_index.alive_ids.tolist()])
        assert Counter(batch.rows.vids.tolist()) == live
        assert Counter(store.postings_df().toPandas()["vid"].tolist()) == live

    def test_compact_with_every_vector_deleted_leaves_an_empty_generation(
        self, spark, base_data, tmp_path
    ):
        vecs, vids = base_data
        st = build_index(spark, vecs[:200], vids[:200], small_cfg(), str(tmp_path / "c3"))
        delete(st, vids[:200])
        gen = st.controller._gen
        compact(st)
        assert st.controller._gen == gen + 1
        pids = st.centroid_index.alive_ids.tolist()
        batch, _ = st.controller.get_batch([pids])
        assert batch.pids.tolist() == pids and not batch.lens.any() and not len(batch.rows)
        assert st.controller.postings_df().count() == 0
        assert set(live_sizes(st).values()) == {0}


class TestCrossEngine:
    def test_build_matches_core_engine(self, spark, base_data, tmp_path):
        """Same data + same config ⇒ the Spark build and the core build
        produce identical postings, pid for pid (same clustering, same
        closure, and no empty posting: this data's clustering gives 2 of
        its 28 centroids no vector, and the build drops them)."""
        vecs, vids = base_data
        cfg = small_cfg()
        st = build_index(spark, vecs[:300], vids[:300], cfg, str(tmp_path / "x1"))
        core = SPFreshIndex.build(vecs[:300].astype(np.float32), vids[:300], cfg)
        assert min(core.posting_lengths().values()) > 0
        assert live_postings(st) == live_postings(core)

    def test_recall_parity_after_updates(self, spark, base_data, tmp_path):
        """After the same update stream, both engines keep recall within a
        small gap."""
        vecs, vids = base_data
        cfg = small_cfg()
        st = build_index(spark, vecs[:400], vids[:400], cfg, str(tmp_path / "x2"))
        core = SPFreshIndex.build(vecs[:400].astype(np.float32), vids[:400], cfg)
        new = clustered_vectors(n=100, dim=8, n_clusters=8, seed=17).astype(np.float64)
        nvids = np.arange(7000, 7100)
        insert_batch(st, nvids, new)
        rebalance(st)
        core.insert_batch(nvids, new)
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
        """One split and its reassignment, from the same build and the same
        insert batch, leave both engines with identical live postings and
        identical top-10 answers."""
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
        insert_batch(st, nvids, new.astype(np.float64))
        stats = rebalance(st)
        assert core.stats.splits == stats.splits == 1
        assert core.stats.reassign_moved == stats.reassign_moved > 0
        assert max(live_sizes(st).values()) <= cfg.split_limit  # no cascade pending
        assert live_postings(st) == live_postings(core)

        qs = clustered_vectors(n=20, dim=8, n_clusters=8, seed=18).astype(np.float32)
        spark_res = sp_search.search_results_matrix(st, qs.astype(np.float64), k=10)
        for q, got in zip(qs, spark_res):
            np.testing.assert_array_equal(got, core.search(q, 10)[0])

    def test_update_stream_matches_core_engine(self, spark, base_data, tmp_path):
        """Both engines are an ``SPFreshIndex`` over their own posting
        store, so from one build and one update stream they stay equal.
        1,000 vectors are inserted in all, 400 of them by the build. Each
        epoch deletes a posting whole and another one down to one vector,
        overflows a posting with three times the split limit of vectors
        near its centroid, inserts 24 more, searches (which
        queues merges for the postings it finds undersized or empty), then
        drains the queue: ``process_jobs`` on the core, ``rebalance`` on
        Spark. After every epoch the alive pids, every posting's live rows
        and length, the empty queues, the ``EngineStats`` counts and the
        search's top-10 ids are equal."""
        vecs, vids = base_data
        cfg = small_cfg()
        st = build_index(spark, vecs[:400], vids[:400], cfg, str(tmp_path / "x2"))
        core = SPFreshIndex.build(vecs[:400].astype(np.float32), vids[:400], cfg)
        rng = np.random.default_rng(17)
        next_vid = 10_000
        for epoch in range(5):
            pids = core.centroid_index.alive_ids
            emptied, thinned = (int(p) for p in rng.choice(pids, 2, replace=False))
            held = live_postings(core)
            registered, _, deleted = core.version_map.entries()
            dels = np.concatenate([
                held[emptied], held[thinned][1:],
                rng.choice(registered[~deleted], 20, replace=False),
            ])
            dels = np.unique(dels).astype(np.int64)
            hot = core.centroid_index.centroid(int(rng.choice(pids))).copy()
            new = np.vstack([
                hot + rng.normal(0, 2.0, (3 * cfg.split_limit, cfg.dim)),
                clustered_vectors(n=24, dim=8, n_clusters=8, seed=100 + epoch),
            ]).astype(np.float32)
            nvids = np.arange(next_vid, next_vid + len(new))
            next_vid += len(new)
            qs = np.vstack([
                core.centroid_index.centroids([emptied, thinned]),
                clustered_vectors(n=18, dim=8, n_clusters=8, seed=200 + epoch),
            ])
            for v in dels:
                core.delete(int(v))
            core.insert_batch(nvids, new)
            core_ids, _ = core.search_batch(qs, 10)
            core.process_jobs()
            delete(st, dels)
            insert_batch(st, nvids, new.astype(np.float64))
            spark_ids = sp_search.search_results_matrix(st, qs, k=10)
            rebalance(st)

            np.testing.assert_array_equal(st.centroid_index.alive_ids, core.centroid_index.alive_ids)
            assert live_postings(st) == live_postings(core)
            assert st.posting_lengths() == core.posting_lengths()
            assert not core.jobs and not st.jobs
            assert counts(st.stats) == counts(core.stats)
            for got, want in zip(spark_ids, core_ids):
                np.testing.assert_array_equal(got, want)
        s = core.stats
        assert s.merges >= 1 and s.max_cascade_depth >= 1 and s.reassign_moved > 0

    def test_read_of_empty_posting_queues_its_merge(self, spark, base_data, tmp_path):
        """A Spark search that reads a posting with 0 live rows queues its
        merge, as the core Searcher does; ``rebalance`` then merges it."""
        vecs, vids = base_data
        st = build_index(spark, vecs[:300], vids[:300], small_cfg(), str(tmp_path / "x3"))
        pid = int(st.centroid_index.alive_ids[0])
        delete(st, live_postings(st)[pid])
        sp_search.search_results_matrix(st, st.centroid_index.centroids([pid]), k=5)
        assert ("merge", pid) in st._pending
        assert rebalance(st).merges == 1 and pid not in st.centroid_index


def counts(stats) -> dict:
    """The count fields of an ``EngineStats``; the µs fields are simulated
    I/O, which the Spark store does not model."""
    return {f: v for f, v in vars(stats).items() if not f.endswith("_us")}


class SparkJobs:
    """Counts the Spark jobs launched inside a ``with`` block, in ``n``:
    the block runs under a job group of its own, counted by the status
    tracker once the listener bus has delivered every job start."""

    _groups = itertools.count()

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.group = f"counted-{os.getpid()}-{next(self._groups)}"
        self.n = None

    def __enter__(self) -> "SparkJobs":
        self.sc.setJobGroup(self.group, "jobs counted by SparkJobs")
        return self

    def __exit__(self, *exc) -> None:
        self.sc.setLocalProperty("spark.jobGroup.id", None)
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        self.n = len(self.sc.statusTracker().getJobIdsForGroup(self.group))


class TestJobCount:
    def test_idle_rebalance_launches_no_job(self, spark, base_data, tmp_path):
        """An idle rebalance has no queued job, so it neither reads nor
        compacts: it only commits the driver metadata."""
        vecs, vids = base_data
        st = build_index(spark, vecs[:300], vids[:300], small_cfg(), str(tmp_path / "j1"))
        with SparkJobs(spark) as counted:
            st.controller.postings_df().count()
        assert counted.n >= 1
        with SparkJobs(spark) as counted:
            stats = rebalance(st)
        assert counted.n == 0
        assert (stats.splits, stats.merges, stats.gc_rewrites) == (0, 0, 0)

    def test_get_batch_reads_each_posting_once(self, spark, base_data, tmp_path):
        """A ParallelGET of several requests is one Arrow read on the
        driver, with no Spark job; it holds each distinct posting once, in
        first-seen order, with its rows' squared norms, and each request
        costs 0.0 simulated µs."""
        vecs, vids = base_data
        st = build_index(spark, vecs[:300], vids[:300], small_cfg(), str(tmp_path / "j2"))
        store = st.controller
        a, b, c = (int(p) for p in st.centroid_index.alive_ids[:3])
        with SparkJobs(spark) as counted:
            batch, costs = store.get_batch([[c, a], [a, b, c], []])
        assert counted.n == 0
        assert batch.pids.tolist() == [c, a, b]
        assert costs == [0.0, 0.0, 0.0]
        want = [store.get(pid)[0] for pid in (c, a, b)]
        assert batch.lens.tolist() == [store.length(pid) for pid in (c, a, b)]
        assert batch.lens.tolist() == [len(p) for p in want]
        assert batch.lens.min() > 0
        for field in ("vids", "versions", "vecs"):
            got = getattr(batch.rows, field)
            np.testing.assert_array_equal(got, np.concatenate([getattr(p, field) for p in want]))
            assert not got.flags.writeable
        np.testing.assert_array_equal(batch.norms, sq_norms(batch.rows.vecs.astype(np.float64)))

    def test_insert_batch_and_search_job_counts(self, spark, base_data, tmp_path):
        """The build and an insert batch write their rows with Arrow: no
        Spark job. A 20-query search runs its read step once for the batch,
        with Arrow, then the core's scan of the live rows that step read,
        one task per slice of queries: 1 Spark job in all."""
        vecs, vids = base_data
        with SparkJobs(spark) as counted:
            st = build_index(spark, vecs[:300], vids[:300], small_cfg(), str(tmp_path / "j3"))
        assert counted.n == 0
        new = clustered_vectors(n=20, dim=8, n_clusters=8, seed=15).astype(np.float64)
        with SparkJobs(spark) as counted:
            insert_batch(st, np.arange(3000, 3020), new)
        assert counted.n == 0
        qs = clustered_vectors(n=20, dim=8, n_clusters=8, seed=10).astype(np.float64)
        with SparkJobs(spark) as counted:
            sp_search.search_results_matrix(st, qs, k=10)
        assert counted.n == 1

    def test_rebalance_launches_only_compaction_jobs(self, spark, base_data, tmp_path):
        """The split, reassign and merge jobs of a rebalance read and write
        postings with Arrow, and so does its compaction, which writes the
        live rows of one Arrow read: a rebalance that splits launches no
        Spark job, and neither does ``live_sizes``."""
        vecs, vids = base_data
        st = build_index(spark, vecs[:300], vids[:300], small_cfg(), str(tmp_path / "j4"))
        new = clustered_vectors(n=120, dim=8, n_clusters=8, seed=16).astype(np.float64)
        insert_batch(st, np.arange(5000, 5120), new)
        with SparkJobs(spark) as counted:
            stats = rebalance(st)
        assert stats.splits > 0
        with SparkJobs(spark) as sizing:
            live_sizes(st)
        assert counted.n == sizing.n == 0
