"""Tests for the experiment harness and system adapters (paper §5)."""
import numpy as np
import pytest

from repro.baselines.diskann import FreshDiskANN
from repro.baselines.spann_plus import build_spann_plus
from repro.core.spfresh import SPFreshConfig, SPFreshIndex
from repro.harness import (
    DiskANNAdapter,
    SPFreshAdapter,
    recall_at_k,
    render_table,
    replay,
    run_update_simulation,
)
from repro.workloads import make_workload


def tiny_workload(kind="spacev", n=600, epochs=6):
    return make_workload(kind, n_base=n, dim=8, n_clusters=8, n_epochs=epochs, n_queries=20)


def spfresh_system(wl, **kw) -> SPFreshAdapter:
    cfg = SPFreshConfig(dim=8, split_limit=32, merge_limit=3, reassign_range=4, nprobe=6, **kw)
    return SPFreshAdapter(SPFreshIndex.build(wl.base_vecs, wl.base_vids, cfg))


class TestRecallAtK:
    def test_perfect(self):
        gt = np.array([[1, 2, 3]])
        assert recall_at_k([np.array([3, 2, 1])], gt, 3) == 1.0

    def test_partial(self):
        gt = np.array([[1, 2, 3, 4]])
        assert recall_at_k([np.array([1, 2, 9, 8])], gt, 4) == 0.5

    def test_empty_result(self):
        gt = np.array([[1, 2]])
        assert recall_at_k([np.array([], dtype=np.int64)], gt, 2) == 0.0


class RecordingSystem:
    """Fake system that logs every call the harness makes."""

    def __init__(self):
        self.calls = []

    def delete_batch(self, vids):
        self.calls.append(("delete", list(vids)))

    def insert_batch(self, vids, vecs):
        self.calls.append(("insert", list(vids)))
        return vids.astype(np.float64)  # distinct per epoch

    def maintain(self):
        self.calls.append(("maintain",))


class TestReplay:
    def test_epoch_protocol(self):
        wl = make_workload("spacev", n_base=100, dim=4, n_clusters=4, n_epochs=3, rate=0.05)
        system = RecordingSystem()
        seen = []

        def on_epoch(i, lats):
            live = set(wl.live)
            epoch = wl.epochs[i - 1]
            # the epoch is applied to the live set before on_epoch runs
            assert set(epoch.insert_vids.tolist()) <= live
            assert not set(epoch.delete_vids.tolist()) & live
            seen.append((i, lats))

        replay(system, wl, on_epoch)
        expect = []
        for e in wl.epochs:
            expect += [("delete", list(e.delete_vids)), ("insert", list(e.insert_vids)), ("maintain",)]
        assert system.calls == expect
        assert [i for i, _ in seen] == [1, 2, 3]
        for (_, lats), e in zip(seen, wl.epochs):
            np.testing.assert_array_equal(lats, e.insert_vids.astype(np.float64))


class TestSPFreshSimulation:
    @pytest.fixture(scope="class")
    def result(self):
        wl = tiny_workload()
        return run_update_simulation(spfresh_system(wl), wl, k=5, measure_every=3)

    def test_timeseries_columns(self, result):
        for col in ("epoch", "recall", "p50_ms", "p999_ms", "mem_mb", "insert_avg_ms"):
            assert col in result.timeseries.columns

    def test_measured_epochs(self, result):
        assert list(result.timeseries["epoch"]) == [0, 3, 6]

    def test_recall_reasonable(self, result):
        assert (result.timeseries["recall"] >= 0.7).all()

    def test_latency_percentiles_ordered(self, result):
        ts = result.timeseries
        assert (ts["p50_ms"] <= ts["p90_ms"]).all()
        assert (ts["p90_ms"] <= ts["p999_ms"]).all()

    def test_final_stats_has_lire_counters(self, result):
        for key in ("splits", "merges", "reassign_moved", "rebalance_insert_frac"):
            assert key in result.final_stats


class TestDiskANNSimulation:
    def test_runs_and_merges(self):
        wl = tiny_workload(n=400, epochs=6)
        idx = FreshDiskANN.build(wl.base_vecs, wl.base_vids, R=16, merge_every=16)
        res = run_update_simulation(DiskANNAdapter(idx), wl, k=5, measure_every=3)
        assert res.final_stats["merges"] >= 1
        assert (res.timeseries["recall"] > 0.4).all()

    def test_merge_epoch_spikes_tail(self):
        wl = tiny_workload(n=400, epochs=2)
        idx = FreshDiskANN.build(wl.base_vecs, wl.base_vids, R=16, merge_every=10**9)
        ad = DiskANNAdapter(idx, merge_block_frac=0.2, merge_block_us=50_000)
        _, lats_quiet = ad.search_batch(wl.query_vecs, 5)
        ad._merged_this_epoch = True
        _, lats_merge = ad.search_batch(wl.query_vecs, 5)
        assert np.quantile(lats_merge, 0.999) > np.quantile(lats_quiet, 0.999) + 40_000


class TestBaselineComparison:
    def test_spann_plus_tail_degrades_vs_spfresh(self):
        """The Fig. 2 / Fig. 7 shape at test scale: under a shifted update
        stream, append-only postings grow so SPANN+'s tail latency ends
        above SPFresh's, while SPFresh stays near its initial tail."""
        wl1 = make_workload("spacev", n_base=800, dim=8, n_clusters=8, n_epochs=15, rate=0.05, n_queries=20)
        wl2 = make_workload("spacev", n_base=800, dim=8, n_clusters=8, n_epochs=15, rate=0.05, n_queries=20)
        sp = run_update_simulation(spfresh_system(wl1), wl1, k=5, measure_every=15)
        cfg = SPFreshConfig(dim=8, split_limit=32, merge_limit=3, nprobe=6)
        plus = SPFreshAdapter(build_spann_plus(wl2.base_vecs, wl2.base_vids, cfg), name="SPANN+")
        pl = run_update_simulation(plus, wl2, k=5, measure_every=15)
        assert pl.timeseries["p999_ms"].iloc[-1] > sp.timeseries["p999_ms"].iloc[-1]


class TestRenderTable:
    def test_renders_floats(self):
        import pandas as pd

        s = render_table(pd.DataFrame({"a": [1.23456], "b": [2]}))
        assert "1.235" in s and "b" in s
