"""Experiment drivers — one function per evaluation artifact (paper §5).

Each ``run_*`` function reproduces one table/figure of the paper at
reproduction scale and returns pandas DataFrames whose printed form is
the table recorded in EXPERIMENTS.md. ``jobs/`` wraps them for
spark-submit; ``benchmarks/`` wraps them for pytest-benchmark.

Scale notes (DESIGN.md §2/§5): the paper runs 100M–1B vectors on NVMe;
we run 2k–20k-vector versions whose *shapes* (who wins, by what factor,
where curves bend) are the reproduction target. Latencies are simulated
microseconds from the shared device model, so cross-system ratios are
meaningful while absolute values are calibration constants.
"""
from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING

import numpy as np

from repro.baselines.diskann import FreshDiskANN
from repro.baselines.spann_plus import build_spann_plus, spann_plus_config
from repro.baselines.static_index import static_rebuild
from repro.core.pipeline import SearchScalingModel, UpdatePipelineModel
from repro.core.spfresh import SPFreshConfig, SPFreshIndex
from repro.harness import (
    DiskANNAdapter,
    SPFreshAdapter,
    measure_queries,
    recall_at_k,
    replay,
    run_update_simulation,
)
from repro.synth_data import clustered_vectors, ground_truth_knn
from repro.workloads import make_workload

if TYPE_CHECKING:
    import pandas as pd


def __getattr__(name: str):
    """``THREADS_TABLE2`` and ``THREADS_TABLE3``, the paper's thread
    allocations as frames: built on first access, so that importing this
    module does not import pandas."""
    tables = {"THREADS_TABLE2": _THREADS_TABLE2, "THREADS_TABLE3": _THREADS_TABLE3}
    if name not in tables:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import pandas as pd

    frame = globals()[name] = pd.DataFrame(tables[name])
    return frame


def default_config(dim: int = 32, **kw) -> SPFreshConfig:
    return SPFreshConfig(dim=dim, **kw)


# ---------------------------------------------------------------------------
# Table 1 — global rebuild cost vs LIRE incremental cost
# ---------------------------------------------------------------------------
def run_t1_rebuild_cost(*, n_base: int = 10_000, dim: int = 32, update_frac: float = 0.01):
    """Global-rebuild resource bill (DiskANN-style graph build and
    SPANN-style clustered build) vs SPFresh's incremental cost of
    absorbing the same 1% update batch without any rebuild."""
    import pandas as pd

    vecs = clustered_vectors(n=n_base, dim=dim, n_clusters=64, seed=0)
    vids = np.arange(n_base)
    cfg = default_config(dim)
    rows = []

    # SPANN-style global rebuild (balanced clustering over everything)
    _, cost = static_rebuild(vecs, vids, cfg)
    rows.append(
        {
            "system": "SPANN global rebuild",
            "wall_s": cost.wall_seconds,
            "peak_mem_mb": cost.peak_memory_bytes / 1e6,
            "work_unit": "vector-passes",
            "work": cost.cpu_vector_passes,
        }
    )

    # DiskANN-style global rebuild (full Vamana construction)
    t0 = time.perf_counter()
    g = FreshDiskANN.build(vecs, vids, R=24, merge_every=10**9)
    diskann_wall = time.perf_counter() - t0
    rows.append(
        {
            "system": "DiskANN global rebuild",
            "wall_s": diskann_wall,
            # float64 working vectors + two graph copies under construction
            # + per-node candidate pools (the reason the paper's DiskANN
            # rebuild needs 1100 GB vs SPANN's 260 GB)
            "peak_mem_mb": (n_base * (dim * 8 + 8 * 64) + g.main.memory_bytes() * 2) / 1e6,
            "work_unit": "dist-comps",
            "work": g.stats.insert_cost.dist_comps,
        }
    )

    # SPFresh incremental: same machine state absorbs a 1% update batch
    idx = SPFreshIndex.build(vecs, vids, cfg)
    n_up = max(1, int(n_base * update_frac))
    new = clustered_vectors(n=n_up, dim=dim, n_clusters=64, seed=1)
    t0 = time.perf_counter()
    idx.insert_batch(np.arange(n_base, n_base + n_up), new)
    for v in range(n_up):
        idx.delete(v)
    idx.process_jobs()
    spfresh_wall = time.perf_counter() - t0
    rows.append(
        {
            "system": "SPFresh incremental (1% batch)",
            "wall_s": spfresh_wall,
            "peak_mem_mb": idx.memory_bytes() / 1e6,
            "work_unit": "background-io-ms",
            "work": idx.stats.background_io_us / 1000.0,
        }
    )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Figure 2 — static vs naive in-place update (recall −1pt, tail ×4)
# ---------------------------------------------------------------------------
def run_f2_inplace(*, n_total: int = 8_000, dim: int = 32, n_queries: int = 400):
    """Paper's §2.3 microbenchmark at 4:1 scale.

    Static = a fresh build over the final live set (all ``n_total``
    vectors); In-place = SPANN+ that started from the first 75% and
    absorbed the last quarter as insert-only in-place appends (the paper
    applies 0.5M updates onto a 1.5M base vs a 2M static index). The
    stream is the shifted SPACEV-like mixture, so appends skew posting
    sizes.
    """
    import pandas as pd

    n_base = int(n_total * 0.75)
    n_epochs = 25
    rate = (n_total - n_base) / n_base / n_epochs
    cfg = default_config(dim)
    wl = make_workload(
        "spacev", n_base=n_base, dim=dim, n_clusters=64, n_epochs=n_epochs,
        rate=rate, delete_rate=0.0, n_queries=n_queries, seed=0,
    )
    inplace = SPFreshAdapter(build_spann_plus(wl.base_vecs, wl.base_vids, cfg), "In-place (SPANN+)")
    replay(inplace, wl)
    vids, vecs = wl.live_arrays()
    static = SPFreshAdapter(static_rebuild(vecs, vids, cfg)[0], "Static")
    rows = []
    for system in (static, inplace):
        recall, lats = measure_queries(system, wl)
        rows.append(
            {
                "system": system.name,
                "recall@10": recall,
                "p50_ms": np.quantile(lats, 0.5) / 1000,
                "p90_ms": np.quantile(lats, 0.9) / 1000,
                "p99_ms": np.quantile(lats, 0.99) / 1000,
                "p999_ms": np.quantile(lats, 0.999) / 1000,
            }
        )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Table 2 + Figure 7 — 100-day real-world update simulation
# ---------------------------------------------------------------------------
_THREADS_TABLE2 = {  # Table 2's thread allocation; THREADS_TABLE2 is its frame
    "system": ["DiskANN", "SPANN+", "SPFresh"],
    "insert": [3, 1, 1],
    "delete": [1, 1, 1],
    "search": [2, 2, 2],
    "background": [10, 2, 2],
    "total": [16, 6, 6],
}


def run_f7_update_sim(
    *,
    kind: str = "spacev",
    n_base: int = 8_000,
    dim: int = 32,
    n_epochs: int = 50,
    n_queries: int = 400,
    measure_every: int = 5,
    merge_every_frac: float = 0.3,
    diskann_R: int = 24,
    diskann_L_search: int = 16,
    nprobe: int = 16,
):
    """Workload A/B (``kind``) through DiskANN, SPANN+ and SPFresh.

    Returns {system: per-epoch timeseries DataFrame} plus the LIRE stats
    row (§5.2.2) for SPFresh. ``nprobe`` / ``diskann_L_search`` are the
    scaled twins of the paper's 64-posting probe and L=40 beam search.
    """
    cfg = default_config(dim, nprobe=nprobe)
    out: dict[str, pd.DataFrame] = {}
    lire_stats: dict = {}
    for name in ("DiskANN", "SPANN+", "SPFresh"):
        wl = make_workload(
            kind, n_base=n_base, dim=dim, n_clusters=64,
            n_epochs=n_epochs, n_queries=n_queries, seed=0,
        )
        if name == "DiskANN":
            idx = FreshDiskANN.build(
                wl.base_vecs, wl.base_vids, R=diskann_R, L_search=diskann_L_search,
                merge_every=int(n_base * merge_every_frac),
            )
            system = DiskANNAdapter(idx)
        elif name == "SPANN+":
            system = SPFreshAdapter(build_spann_plus(wl.base_vecs, wl.base_vids, cfg), name)
        else:
            system = SPFreshAdapter(SPFreshIndex.build(wl.base_vecs, wl.base_vids, cfg), name)
        res = run_update_simulation(system, wl, k=10, measure_every=measure_every)
        out[name] = res.timeseries
        if name == "SPFresh":
            lire_stats = system.lire_stats()
    return out, lire_stats


def summarize_f7(series: dict[str, pd.DataFrame]) -> pd.DataFrame:
    """One summary row per system: the Fig. 7 claims in table form."""
    import pandas as pd

    rows = []
    for name, ts in series.items():
        after = ts[ts["epoch"] > 0]
        rows.append(
            {
                "system": name,
                "p999_ms_mean": after["p999_ms"].mean(),
                "p999_ms_max": after["p999_ms"].max(),
                "recall_first": ts["recall"].iloc[0],
                "recall_last": ts["recall"].iloc[-1],
                "insert_ms_mean": after["insert_avg_ms"].mean(),
                "mem_mb_max": ts["mem_mb"].max(),
            }
        )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Figure 8 — search throughput / IOPS vs search threads
# ---------------------------------------------------------------------------
def run_f8_search_scaling(*, n_base: int = 8_000, dim: int = 32, n_queries: int = 200):
    """Measure per-query CPU µs and blocks/query on a built SPFresh index,
    then sweep search threads through the device-saturation model."""
    import pandas as pd

    cfg = default_config(dim)
    vecs = clustered_vectors(n=n_base, dim=dim, n_clusters=64, seed=0)
    idx = SPFreshIndex.build(vecs, np.arange(n_base), cfg)
    qs = clustered_vectors(n=n_queries, dim=dim, n_clusters=64, seed=1)
    blocks0 = idx.ssd.counters.blocks_read
    _, lats = idx.search_batch(qs, 10)
    blocks_per_query = (idx.ssd.counters.blocks_read - blocks0) / n_queries
    # CPU part = simulated latency minus the IO part
    io_us_per_query = idx.ssd.read_cost_us(int(round(blocks_per_query)))
    cpu_us_per_query = max(50.0, float(np.mean(lats)) - io_us_per_query)
    model = SearchScalingModel(
        cpu_us_per_query=cpu_us_per_query, blocks_per_query=blocks_per_query
    )
    rows = [
        {"search_threads": t, "qps": model.qps(t), "disk_iops": model.iops(t)}
        for t in range(1, 17)
    ]
    return pd.DataFrame(rows), model


# ---------------------------------------------------------------------------
# Table 3 + Figure 9 — stress test (uniform and skew)
# ---------------------------------------------------------------------------
_THREADS_TABLE3 = {  # Table 3's thread allocation; THREADS_TABLE3 is its frame
    "role": ["delete/re-insert", "background", "search", "total"],
    "threads": [4, 3, 8, 15],
}


def run_f9_stress(
    *, n_base: int = 20_000, dim: int = 32, n_epochs: int = 20, n_queries: int = 400,
    nprobe: int = 16,
):
    """Scaled Workload C: SPFresh only, uniform (SIFT-like) and skew
    (SPACEV-like) datasets; stability of P99.9, accuracy, memory."""
    out = {}
    for kind, label in (("sift", "uniform"), ("spacev", "skew")):
        wl = make_workload(
            kind, n_base=n_base, dim=dim, n_clusters=64,
            n_epochs=n_epochs, n_queries=n_queries, seed=0,
        )
        cfg = default_config(dim, nprobe=nprobe)
        system = SPFreshAdapter(SPFreshIndex.build(wl.base_vecs, wl.base_vids, cfg))
        res = run_update_simulation(system, wl, k=10, measure_every=max(1, n_epochs // 10))
        ts = res.timeseries.copy()
        ts["dataset"] = label
        out[label] = ts
    return out


def run_f9_spark_leg(
    spark, root: str, *, n_base: int = 10_000, dim: int = 32, n_epochs: int = 5,
    n_queries: int = 100, nprobe: int = 16,
):
    """The stress test's largest-scale leg through the Spark dataflow
    engine: per-epoch batch delete/insert + LIRE rebalance jobs over the
    Parquet posting store, with recall measured by the DataFrame search
    pipeline. Demonstrates the distributed index-maintenance path of
    DESIGN.md §3 at the scale where driver-side numpy would not be the
    tool of record."""
    import pandas as pd

    from repro.spark_index import search as sp_search
    from repro.spark_index.engine import build_index, insert_batch, live_sizes, rebalance

    wl = make_workload(
        "spacev", n_base=n_base, dim=dim, n_clusters=64,
        n_epochs=n_epochs, n_queries=n_queries, seed=0,
    )
    cfg = default_config(dim, nprobe=nprobe)
    idx = build_index(spark, wl.base_vecs, wl.base_vids, cfg, root)
    rows = []
    for i, e in enumerate(wl.epochs, start=1):
        before = dataclasses.replace(idx.stats)
        for vid in e.delete_vids:
            idx.delete(int(vid))
        insert_batch(idx, e.insert_vids, e.insert_vecs)
        st = rebalance(idx)
        wl.apply(e)
        _, gt = wl.ground_truth(10)
        res = sp_search.search_results_matrix(idx, wl.query_vecs.astype(np.float64), k=10)
        sizes = live_sizes(idx)
        rows.append(
            {
                "epoch": i,
                "recall": recall_at_k(res, gt, 10),
                "splits": st.splits - before.splits,
                "merges": st.merges - before.merges,
                "reassign_moved": st.reassign_moved - before.reassign_moved,
                "max_posting": max(sizes.values()),
                "n_postings": len(idx.centroid_index),
            }
        )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Figure 10 — accuracy/latency tradeoff of update techniques
# ---------------------------------------------------------------------------
def run_f10_ablation(
    *, n_base: int = 6_000, dim: int = 32, n_epochs: int = 25, n_queries: int = 300,
    nprobes: tuple[int, ...] = (2, 4, 8, 16, 32),
):
    """Four variants under the shifted stream, recall-vs-latency per nprobe:
    append-only (SPANN+), +split, +split+reassign (SPFresh), Static."""
    import pandas as pd

    cfg = default_config(dim)
    variants = {
        "in-place only (SPANN+)": spann_plus_config(cfg),
        "in-place + split": dataclasses.replace(cfg, reassign=False),
        "in-place + split + reassign (SPFresh)": cfg,
    }
    rows = []
    for name, variant in variants.items():
        wl = make_workload(
            "spacev", n_base=n_base, dim=dim, n_clusters=64,
            n_epochs=n_epochs, rate=0.02, n_queries=n_queries, seed=0,
        )
        system = SPFreshAdapter(SPFreshIndex.build(wl.base_vecs, wl.base_vids, variant), name)
        replay(system, wl)
        rows.extend(_tradeoff_rows(system, wl, nprobes))
    # Static reference over the final live set
    vids, vecs = wl.live_arrays()
    static = SPFreshAdapter(static_rebuild(vecs, vids, cfg)[0], "Static")
    rows.extend(_tradeoff_rows(static, wl, nprobes))
    return pd.DataFrame(rows)


def _tradeoff_rows(system: SPFreshAdapter, wl, nprobes) -> list[dict]:
    out = []
    for nprobe in nprobes:
        system.index.config = dataclasses.replace(system.index.config, nprobe=nprobe)
        recall, lats = measure_queries(system, wl)
        out.append(
            {
                "system": system.name,
                "nprobe": nprobe,
                "recall@10": recall,
                "avg_ms": float(np.mean(lats)) / 1000,
                "p99_ms": float(np.quantile(lats, 0.99)) / 1000,
            }
        )
    return out


# ---------------------------------------------------------------------------
# Figure 11 — reassign range parameter study
# ---------------------------------------------------------------------------
def run_f11_reassign_range(
    *, n_base: int = 6_000, dim: int = 32, n_epochs: int = 25, n_queries: int = 300,
    ranges: tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32, 64),
):
    """Sweep the number of neighbor postings checked per split.

    Run with closure replication off (``max_replicas=1``) and a tight
    probe budget: at repro scale SPANN's boundary replicas mask the NPA
    violations that neighbor-range reassignment repairs, so the paper's
    accuracy-vs-range curve only becomes visible on the pure
    nearest-assignment index (see EXPERIMENTS.md).
    """
    import pandas as pd

    rows = []
    for rng in ranges:
        wl = make_workload(
            "spacev", n_base=n_base, dim=dim, n_clusters=64,
            n_epochs=n_epochs, rate=0.04, shift=0.95, n_queries=n_queries, seed=0,
        )
        cfg = default_config(dim, reassign_range=rng, max_replicas=1, nprobe=4)
        system = SPFreshAdapter(SPFreshIndex.build(wl.base_vecs, wl.base_vids, cfg))
        replay(system, wl)
        recall, lats = measure_queries(system, wl)
        s = system.index.stats
        rows.append(
            {
                "reassign_range": rng,
                "recall@10": recall,
                "avg_ms": float(np.mean(lats)) / 1000,
                "reassign_evaluated": s.reassign_evaluated,
                "reassign_moved": s.reassign_moved,
            }
        )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# Figure 12 — fore/background pipeline balance
# ---------------------------------------------------------------------------
def run_f12_pipeline(
    *, n_base: int = 8_000, dim: int = 32, n_updates: int = 2_000, reassign_range: int = 64
):
    """Measure Updater and Local Rebuilder per-update costs on a real run,
    then sweep thread allocations through the pipeline model.

    Runs with the paper's full reassign range (64 neighbor postings) so
    the background stage carries its real share of I/O.
    """
    import pandas as pd

    cfg = default_config(dim, reassign_range=reassign_range)
    wl = make_workload(
        "spacev", n_base=n_base, dim=dim, n_clusters=64,
        n_epochs=max(1, n_updates // max(1, int(n_base * 0.01))), n_queries=10, seed=0,
    )
    system = SPFreshAdapter(SPFreshIndex.build(wl.base_vecs, wl.base_vids, cfg))
    insert_lats: list[np.ndarray] = []
    replay(system, wl, lambda _, lats: insert_lats.append(lats))
    n_ins = sum(len(lats) for lats in insert_lats)
    fore_us = sum(float(lats.sum()) for lats in insert_lats) / max(1, n_ins)
    s = system.index.stats
    back_us = (s.background_io_us + s.background_cpu_us) / max(1, n_ins)
    model = UpdatePipelineModel(fore_us_per_update=fore_us, back_us_per_update=back_us)
    fore_sweep = pd.DataFrame(
        {
            "fore_threads": list(range(1, 9)),
            "back_threads": 1,
            "update_qps": [model.qps(f, 1) for f in range(1, 9)],
            "background_keeps_up": [model.background_keeps_up(f, 1) for f in range(1, 9)],
        }
    )
    back_sweep = pd.DataFrame(
        {
            "fore_threads": 8,
            "back_threads": list(range(1, 9)),
            "update_qps": [model.qps(8, b) for b in range(1, 9)],
            "background_keeps_up": [model.background_keeps_up(8, b) for b in range(1, 9)],
        }
    )
    return fore_sweep, back_sweep, model
