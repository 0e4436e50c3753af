"""The traced benchmark run reaches into the core engine from outside.

``perfbench/core_bench.py`` wraps engine functions by module and name and
reads engine attributes and counters directly. These tests build its patch
set and drive one small traced churn pass through the benchmark's own code,
so a renamed or deleted name fails here and not only in ``--trace 1``.
"""
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.spfresh import SPFreshConfig, SPFreshIndex
from repro.synth_data import clustered_vectors

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import core_bench
    import tracing

    return core_bench, tracing


def test_traced_churn_pass(bench):
    core_bench, tracing = bench
    vecs = clustered_vectors(n=600, dim=8, n_clusters=4, seed=60)
    cfg = SPFreshConfig(dim=8, split_limit=48, merge_limit=4, reassign_range=8, nprobe=8)
    idx = SPFreshIndex.build(vecs, np.arange(600), cfg)
    p = core_bench.CorePass("core-churn", core_bench.WORKLOADS["core-churn"], None, idx, 0, 0)
    tracer = p.tracer = tracing.Tracer()
    patches = core_bench._patches(tracer)
    epoch = SimpleNamespace(
        delete_vids=np.arange(0, 60),
        insert_vids=np.arange(600, 900),
        insert_vecs=clustered_vectors(n=300, dim=8, n_clusters=4, seed=61),
    )
    patches.install()
    try:
        p.update(epoch)
        p.maintain()
        p.search(vecs[100:116])
    finally:
        patches.remove()
    assert (p.failed, p.errors, p.drain_errors) == (0, [], [])
    p.unit_s = [1.0]  # one unit, as the untraced pass would time it
    layers = core_bench._per_layer(tracer, p, p)
    assert layers["rebuilder.split.jobs"] > 0 and layers["rebuilder.reassign.jobs"] > 0
    assert layers["rebuilder.splits"] == p.counts()["splits"] > 0
