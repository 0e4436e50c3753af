"""Smoke + shape tests for the experiment drivers at tiny scale.

The full-scale tables live in benchmarks/ and jobs/; these tests pin the
plumbing: every driver runs, returns the expected columns, and the
cheap-to-check shapes hold even at toy sizes.
"""
import os
import subprocess
import sys

import pytest

import repro
from repro import experiments as ex


class TestT1:
    @pytest.fixture(scope="class")
    def df(self):
        return ex.run_t1_rebuild_cost(n_base=1_200)

    def test_three_systems(self, df):
        assert len(df) == 3

    def test_incremental_cheapest_wall(self, df):
        by = df.set_index("system")["wall_s"]
        assert by["SPFresh incremental (1% batch)"] == by.min()

    def test_columns(self, df):
        assert {"system", "wall_s", "peak_mem_mb", "work"} <= set(df.columns)


class TestF2:
    def test_runs_and_orders_tail(self):
        df = ex.run_f2_inplace(n_total=1_600, n_queries=100)
        by = df.set_index("system")
        assert by.loc["In-place (SPANN+)", "p999_ms"] >= by.loc["Static", "p999_ms"]


class TestF7:
    @pytest.fixture(scope="class")
    def result(self):
        return ex.run_f7_update_sim(
            kind="spacev", n_base=1_500, n_epochs=10, n_queries=100, measure_every=5
        )

    def test_three_series(self, result):
        series, _ = result
        assert set(series) == {"DiskANN", "SPANN+", "SPFresh"}

    def test_summary_shape(self, result):
        series, _ = result
        s = ex.summarize_f7(series)
        assert {"p999_ms_mean", "recall_last", "mem_mb_max"} <= set(s.columns)

    def test_lire_stats_present(self, result):
        _, lire = result
        assert "rebalance_insert_frac" in lire


class TestF8:
    def test_model_saturates(self):
        df, model = ex.run_f8_search_scaling(n_base=1_500, n_queries=50)
        assert df["qps"].iloc[-1] == pytest.approx(model.device_iops / model.blocks_per_query)


class TestF9:
    def test_both_datasets(self):
        out = ex.run_f9_stress(n_base=1_500, n_epochs=4, n_queries=60)
        assert set(out) == {"uniform", "skew"}
        for ts in out.values():
            assert (ts["recall"] > 0.5).all()


class TestF10:
    def test_variants_and_static(self):
        df = ex.run_f10_ablation(n_base=1_200, n_epochs=6, n_queries=60, nprobes=(2, 8))
        assert df["system"].nunique() == 4
        assert len(df) == 8


class TestF11:
    def test_ranges_swept(self):
        df = ex.run_f11_reassign_range(
            n_base=1_200, n_epochs=6, n_queries=60, ranges=(0, 4)
        )
        assert list(df["reassign_range"]) == [0, 4]
        assert df["reassign_evaluated"].iloc[1] >= df["reassign_evaluated"].iloc[0]


class TestF12:
    def test_pipeline_model_built(self):
        fore, back, model = ex.run_f12_pipeline(n_base=1_500, n_updates=300)
        assert len(fore) == 8 and len(back) == 8
        assert model.fore_us_per_update > 0


class TestImportHygiene:
    def test_core_modules_import_none_of_pandas_pyspark_pyarrow(self):
        # pandas (with pyarrow) costs a core-only process about 0.4 s to import
        code = (
            "import sys\n"
            "import repro.experiments, repro.harness, repro.core.spfresh\n"
            "print(sorted(m for m in ('pandas', 'pyspark', 'pyarrow') if m in sys.modules))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
            check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_thread_tables_are_frames(self):
        assert ex.THREADS_TABLE2["total"].tolist() == [16, 6, 6]
        assert ex.THREADS_TABLE3["threads"].tolist() == [4, 3, 8, 15]
        assert ex.THREADS_TABLE2 is ex.THREADS_TABLE2
