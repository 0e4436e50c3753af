"""core-search and core-churn: the LIRE engine over the simulated Block Controller.

Both workloads drive ``repro.core.spfresh.SPFreshIndex`` through its
public calls, one closed-loop client in one process. A run is a fixed
amount of work derived from ``--seconds``, so every count repeats exactly
for a seed; the wall time it takes is what is measured.
"""
from __future__ import annotations

import copy
import hashlib
import os
import traceback

import numpy as np

from repro.blockstore.controller import BlockController
from repro.core import centroid_index, clustering, lire, spfresh
from repro.core.centroid_index import CentroidIndex
from repro.core.spfresh import SPFreshIndex
from repro.core.version_map import VersionMap
from repro.experiments import default_config
from repro import workloads
from repro.harness import recall_at_k
from repro.synth_data import ground_truth_knn
from repro.workloads import UpdateWorkload
from tracing import Patches, Tracer, now

K = 10

WORKLOADS = {
    # Searcher path only: navigation, ParallelGET, staleness filter, scan,
    # top-k. No update reaches the index, so the Local Rebuilder is idle.
    "core-search": dict(
        data=dict(kind="spacev", n_base=8_000, dim=32, n_clusters=64, shift=0.95,
                  n_epochs=1),
        config=dict(nprobe=16),
        batch=8,
        calls_per_second=100,  # ~800 q/s on a 4-vCPU host
        repeats=20,  # each distinct batch is searched this often; its time is the fastest
        trace_repeats=5,  # per-layer figures need no fastest repeat
        chunk_calls=25,
        warmup_calls=25,
        passes=1,
        recall_floor=0.85,
    ),
    # Paper-style churn (delete + insert, then drain the job queue, then
    # search the whole query set): the Local Rebuilder with the paper's
    # reassign range does most of the work.
    "core-churn": dict(
        data=dict(kind="spacev", n_base=8_000, dim=32, n_clusters=64, shift=0.95,
                  rate=0.04, n_queries=200),
        config=dict(nprobe=16, reassign_range=64),
        batch=8,
        epochs_per_second=1.12,  # epoch runs, all passes together (~1.3 s each)
        warmup_epochs=4,  # the first epochs barely split: the build left headroom
        passes=7,  # identical indexes, each running every epoch; a unit takes its fastest
        recall_floor=0.80,
    ),
}

SETUP_REPEATS = 3  # build + warm-up; further passes run on copies of the index
MIXTURE_SEED = 0
INSERT_SLICE = 16  # vectors per insert_batch call
RECALL_QUERIES = 1_000  # recall is the mean over the first answers, against exact kNN


def _log_error(errors: list[str], what: str) -> None:
    if len(errors) < 5:
        errors.append(f"{what}: {traceback.format_exc()}")


class CorePass:
    """One pass of a workload over its own freshly built index."""

    def __init__(self, name: str, spec: dict, wl, idx: SPFreshIndex, n_distinct: int,
                 n_calls: int):
        self.name, self.spec, self.wl, self.idx = name, spec, wl, idx
        self.n_distinct = n_distinct  # core-search: distinct query batches
        self.n_calls = n_calls  # core-search: search_batch calls
        self.search_batch_ids: list[int] = []  # distinct batch of each call
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.drain_errors: list[str] = []
        self.results: list[np.ndarray] = []
        self.sim_search_us: list[float] = []
        self.sim_insert_us: list[float] = []
        self.search_s: list[float] = []  # per search_batch call
        self.search_q: list[int] = []
        self.update_s: list[float] = []  # per epoch's deletes and per insert slice
        self.update_ops: list[int] = []  # per epoch
        self.maintain_s: list[float] = []  # per job
        self.unit_s: list[float] = []  # per chunk or epoch
        self.queue_depths: list[int] = []
        self.search_blocks_read = 0
        self.ssd0 = idx.ssd.counters.snapshot()
        self.stats0 = dict(vars(idx.stats))
        self.ids_hash = hashlib.sha256()  # every answer of the pass, in order
        self.tracer: Tracer | None = None

    # -- operations, each counted and guarded ---------------------------
    def search(self, qs: np.ndarray) -> bool:
        self.attempted += len(qs)
        before = self.idx.ssd.counters.blocks_read
        t0 = now()
        try:
            ids, lats = self.idx.search_batch(qs, K)
        except Exception:
            self.failed += len(qs)
            _log_error(self.errors, "search")
            return False
        dt = now() - t0
        self.search_s.append(dt)
        self.search_q.append(len(qs))
        self.search_blocks_read += self.idx.ssd.counters.blocks_read - before
        self.results.extend(ids)
        for r in ids:
            self.ids_hash.update(np.asarray(r, dtype=np.int64).tobytes())
        self.sim_search_us.extend(lats.tolist())
        return True

    def update(self, epoch) -> None:
        t0 = now()
        for vid in epoch.delete_vids:
            self.attempted += 1
            try:
                self.idx.delete(int(vid))
            except Exception:
                self.failed += 1
                _log_error(self.errors, "delete")
        self.update_s.append(now() - t0)
        # insert_batch is a loop of inserts; slices of it are short enough
        # to be timed between the host's slow spells.
        for lo in range(0, len(epoch.insert_vids), INSERT_SLICE):
            vids = epoch.insert_vids[lo : lo + INSERT_SLICE]
            self.attempted += len(vids)
            t0 = now()
            try:
                lats = self.idx.insert_batch(vids, epoch.insert_vecs[lo : lo + INSERT_SLICE])
                self.sim_insert_us.extend(lats.tolist())
            except Exception:
                self.failed += len(vids)
                _log_error(self.errors, "insert")
            self.update_s.append(now() - t0)
        self.update_ops.append(len(epoch.delete_vids) + len(epoch.insert_vids))

    def maintain(self) -> None:
        """Drain the job queue one job at a time, each timed (and, traced, a
        span of its kind)."""
        jobs = self.idx.jobs
        while jobs:
            self.queue_depths.append(len(jobs))
            kind = jobs[0][0]
            step = self.idx.process_jobs
            if self.tracer is not None:
                step = self.tracer.wrap(f"rebuilder.{kind}", step)
            self.attempted += 1
            t0 = now()
            try:
                step(max_jobs=1)
            except Exception:
                self.failed += 1
                _log_error(self.errors, f"{kind} job")
            self.maintain_s.append(now() - t0)
        # A drained queue leaves no posting above the split limit.
        longest = max(map(self.idx.controller.length, self.idx.controller.posting_ids))
        if longest > self.idx.config.split_limit:
            self.drain_errors.append(f"posting of {longest} tuples above the split limit")

    # -- units of work ----------------------------------------------------
    def unit(self, i: int) -> None:
        t0 = now()
        if self.name == "core-search":
            # Call c searches distinct batch c % n_distinct, so every batch
            # comes back once per cycle of all of them.
            b, n = self.spec["batch"], self.spec["chunk_calls"]
            for c in range(i * n, min((i + 1) * n, self.n_calls)):
                d = c % self.n_distinct
                if self.search(self.wl.query_vecs[d * b : (d + 1) * b]):
                    self.search_batch_ids.append(d)
        else:
            epoch = self.wl.epochs[self.spec["warmup_epochs"] + i]
            self.update(epoch)
            self.maintain()
            self.results = []  # keep only the last epoch's answers
            # in short calls, each timed by its fastest pass (see _end_to_end)
            qs, b = self.wl.query_vecs, self.spec["batch"]
            for lo in range(0, len(qs), b):
                self.search(qs[lo : lo + b])
        self.unit_s.append(now() - t0)

    def counts(self) -> dict:
        """Count-type outcomes that must repeat exactly for a seed."""
        s = self.idx.stats
        d = self.idx.ssd.counters.delta(self.ssd0)
        return {
            "splits": s.splits, "merges": s.merges, "gc_rewrites": s.gc_rewrites,
            "reassign_evaluated": s.reassign_evaluated, "reassign_moved": s.reassign_moved,
            "reassign_aborted_cas": s.reassign_aborted_cas,
            "blocks_read": d.blocks_read, "blocks_written": d.blocks_written,
            "read_batches": d.read_batches, "write_batches": d.write_batches,
            "n_postings": len(self.idx.centroid_index),
            "sim_search_us_sum": round(float(np.sum(self.sim_search_us)), 6),
            "sim_insert_us_sum": round(float(np.sum(self.sim_insert_us)), 6),
            "result_ids_sha256": self.ids_hash.hexdigest(),
        }


def _make_workload(seed: int, **data) -> UpdateWorkload:
    """``make_workload`` with the mixture fixed: ``seed`` draws the samples only.

    The mixture centres and the shifted weights of the update pool are drawn
    from ``MIXTURE_SEED``; the base set, the pool, the queries and the deletes
    from ``seed``. Mixtures differ in how fast their updates fill postings,
    about 2x in splits per epoch between seeds, which would swamp what a run
    measures; samples of one mixture agree within a few percent.
    """
    orig = workloads.mixture_centers, workloads.shifted_weights
    workloads.mixture_centers = lambda **kw: orig[0](**{**kw, "seed": MIXTURE_SEED + 1})
    workloads.shifted_weights = lambda w, **kw: orig[1](w, **{**kw, "seed": MIXTURE_SEED + 7})
    try:
        return workloads.make_workload(seed=seed, **data)
    finally:
        workloads.mixture_centers, workloads.shifted_weights = orig


def _build(spec: dict, wl) -> SPFreshIndex:
    cfg = default_config(**spec["config"])
    return SPFreshIndex.build(wl.base_vecs, wl.base_vids, cfg)


def _warm_up(name: str, spec: dict, wl, idx: SPFreshIndex) -> None:
    """Untimed first work on a fresh index; counted inside ``setup_s``."""
    if name == "core-search":
        b = spec["batch"]
        qs = wl.query_vecs[-spec["warmup_calls"] * b :]  # not among the timed batches
        for lo in range(0, len(qs), b):
            idx.search_batch(qs[lo : lo + b], K)
    else:
        for epoch in wl.epochs[: spec["warmup_epochs"]]:
            for vid in epoch.delete_vids:
                idx.delete(int(vid))
            idx.insert_batch(epoch.insert_vids, epoch.insert_vecs)
            idx.process_jobs()
            idx.search_batch(wl.query_vecs, K)


def _patches(tracer: Tracer) -> Patches:
    """Wrappers around every core layer's public entry points."""
    c = tracer.counts

    def scanned(args, stale):
        c["version_map.scanned"] += len(stale)
        c["version_map.stale"] += int(np.count_nonzero(stale))

    # a span record's [3] counts its open spans
    navigating = tracer.record("centroid_index.search")
    searching = tracer.record("spfresh.search")

    def flops(args, d):
        c["distances.pairwise_sq_l2.flop"] += 2.0 * d.size * args[1].shape[-1]
        if navigating[3]:  # query-to-centroid distances
            c["centroid_index.centroids_compared"] += d.size

    def screened(args, mask):
        c["lire.condition.screened"] += len(mask)
        c["lire.condition.passed"] += int(np.count_nonzero(mask))

    def fetched(args, out):
        if searching[3]:
            c["spfresh.search.vectors_scanned"] += sum(len(x) for x in out[0].values())

    pt = Patches(tracer)
    pt.add(SPFreshIndex, "search", "spfresh.search")
    pt.add(SPFreshIndex, "search_batch", "spfresh.search_batch")
    pt.add(SPFreshIndex, "insert", "spfresh.insert")
    pt.add(SPFreshIndex, "insert_batch", "spfresh.insert_batch")
    pt.add(SPFreshIndex, "delete", "spfresh.delete")
    pt.add(CentroidIndex, "search", "centroid_index.search")
    pt.add(BlockController, "get", "controller.get")
    pt.add(BlockController, "get_many", "controller.get_many", fetched)
    pt.add(BlockController, "append", "controller.append")
    pt.add(BlockController, "put", "controller.put")
    pt.add(VersionMap, "is_stale", "version_map.is_stale", scanned)
    for mod in (spfresh, centroid_index, clustering, lire):
        pt.add(mod, "pairwise_sq_l2", "distances.pairwise_sq_l2", flops)
    for mod in (spfresh, centroid_index):
        pt.add(mod, "topk_indices", "distances.topk_indices")
    pt.add(spfresh, "closure_assign", "clustering.closure_assign")
    pt.add(spfresh, "balanced_two_means", "clustering.balanced_two_means")
    pt.add(spfresh, "condition_one", "lire.condition", screened)
    pt.add(spfresh, "condition_two", "lire.condition", screened)
    return pt


def _per_layer(tracer: Tracer, p: CorePass, untraced: CorePass) -> dict:
    ms = lambda s: 1000.0 * s  # noqa: E731
    c = tracer.counts
    calls, self_s, incl_s = tracer.calls, tracer.self_s, tracer.incl_s
    st, st0 = p.idx.stats, p.stats0
    traced_wall = sum(p.unit_s)
    out = {
        "spfresh.search.self_ms": ms(self_s("spfresh.search")),
        "spfresh.search.vectors_scanned_per_query":
            c["spfresh.search.vectors_scanned"] / max(1, calls("spfresh.search")),
        "spfresh.insert.calls": calls("spfresh.insert"),
        "spfresh.insert.self_ms": ms(self_s("spfresh.insert")),
    }
    for kind in ("split", "reassign", "merge", "gc"):
        out[f"rebuilder.{kind}.jobs"] = calls(f"rebuilder.{kind}")
        out[f"rebuilder.{kind}.ms"] = ms(incl_s(f"rebuilder.{kind}"))
    q = p.queue_depths
    rebuilder_s = sum(incl_s(f"rebuilder.{k}") for k in ("split", "reassign", "merge", "gc"))
    evaluated = st.reassign_evaluated - st0["reassign_evaluated"]
    moved = st.reassign_moved - st0["reassign_moved"]
    d = p.idx.ssd.counters.delta(p.ssd0)
    ctl = p.idx.controller
    inserted = calls("spfresh.insert")
    live = len(p.idx._vecs)
    out.update({
        "rebuilder.splits": st.splits - st0["splits"],
        "rebuilder.merges": st.merges - st0["merges"],
        "rebuilder.queue_depth_max": max(q, default=0),
        "rebuilder.queue_depth_mean": float(np.mean(q)) if q else 0.0,
        "rebuilder.wall_frac": rebuilder_s / traced_wall,
        "reassign.evaluated": evaluated,
        "reassign.moved": moved,
        "reassign.moved_frac": moved / evaluated if evaluated else 0.0,
        "reassign.cas_aborted": st.reassign_aborted_cas - st0["reassign_aborted_cas"],
        "lire.condition.pass_frac":
            c["lire.condition.passed"] / c["lire.condition.screened"]
            if c["lire.condition.screened"] else 0.0,
        "centroid_index.search.calls": calls("centroid_index.search"),
        "centroid_index.search.self_ms": ms(self_s("centroid_index.search")),
        "centroid_index.centroids_compared": c["centroid_index.centroids_compared"],
    })
    for op in ("get", "get_many", "append", "put"):
        out[f"controller.{op}.calls"] = calls(f"controller.{op}")
        out[f"controller.{op}.self_ms"] = ms(self_s(f"controller.{op}"))
    out.update({
        "ssd.blocks_read_per_query": p.search_blocks_read / max(1, sum(p.search_q)),
        "ssd.read_batches": d.read_batches,
        "ssd.blocks_written": d.blocks_written,
        # user bytes: one byte per dimension, the controller's vector format
        "ssd.write_amp": d.blocks_written * p.idx.ssd.block_bytes / (inserted * ctl.dim)
            if inserted else 0.0,
        "ssd.space_amp": p.idx.ssd.blocks_in_use * p.idx.ssd.block_bytes
            / (live * ctl.entry_bytes),
        "version_map.is_stale.calls": calls("version_map.is_stale"),
        "version_map.is_stale.self_ms": ms(self_s("version_map.is_stale")),
        "version_map.stale_frac": c["version_map.stale"] / max(1, c["version_map.scanned"]),
        "distances.pairwise_sq_l2.calls": calls("distances.pairwise_sq_l2"),
        "distances.pairwise_sq_l2.self_ms": ms(self_s("distances.pairwise_sq_l2")),
        "distances.pairwise_sq_l2.mflop": c["distances.pairwise_sq_l2.flop"] / 1e6,
        "distances.topk_indices.self_ms": ms(self_s("distances.topk_indices")),
        "clustering.closure_assign.calls": calls("clustering.closure_assign"),
        "clustering.closure_assign.self_ms": ms(self_s("clustering.closure_assign")),
        "clustering.balanced_two_means.self_ms": ms(self_s("clustering.balanced_two_means")),
        # units of the two passes run back to back, so their ratio is local
        "trace.overhead_frac":
            float(np.median(np.asarray(p.unit_s) / np.asarray(untraced.unit_s))) - 1.0,
        "trace.self_coverage": tracer.total_self_s() / traced_wall,
    })
    return out


def _check_results(results: list[np.ndarray], live: set[int]) -> list[str]:
    """Every answer holds K distinct ids, all of them live."""
    bad = []
    for i, r in enumerate(results):
        ids = [int(v) for v in r]
        if len(ids) != K or len(set(ids)) != K or not live.issuperset(ids):
            bad.append(f"query {i}: ids {ids} are not {K} distinct live ids")
            break
    return bad


def _schedule(n_units: int, n_passes: int, trace: bool) -> list[tuple[int, int]]:
    """(pass, unit) pairs in the order they run.

    Traced run: the untraced and the traced pass alternate unit by unit,
    and alternate which goes first, so host noise hits both sides of the
    overhead ratio alike. Untraced run: the passes run one after another,
    so the runs of one unit lie a whole pass apart, spread over the run,
    and rarely all meet the same slow spell of the host.
    """
    if trace:
        return [(j if i % 2 else 1 - j, i) for i in range(n_units) for j in (0, 1)]
    return [(k, i) for k in range(n_passes) for i in range(n_units)]


def _cpus() -> list[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


def _pin(*cpus: int) -> None:
    """Run on the given CPUs, where the platform allows it.

    One core of a shared host can be slow for many seconds while another is
    not, so the units of a run move round the allowed CPUs in turn: the runs
    of one unit then land on different cores.
    """
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


def run(name: str, seed: int, seconds: int, trace: bool, t_start: float) -> dict:
    spec = WORKLOADS[name]
    data = dict(spec["data"])
    n_distinct = n_calls = 0
    n_passes = 2 if trace else spec["passes"]
    if name == "core-churn":
        # the passes share the time: each runs every epoch
        n_units = max(1, round(seconds * spec["epochs_per_second"] / n_passes))
        data["n_epochs"] = spec["warmup_epochs"] + n_units
    else:
        n_distinct = max(1, seconds * spec["calls_per_second"] // spec["repeats"])
        n_calls = n_distinct * spec["trace_repeats" if trace else "repeats"]
        n_units = -(-n_calls // spec["chunk_calls"])
        data["n_queries"] = (n_distinct + spec["warmup_calls"]) * spec["batch"]
    wl = _make_workload(seed, **data)
    process_s = now() - t_start
    setup_reps, indexes = [], []
    for _ in range(SETUP_REPEATS):
        t0 = now()
        idx = _build(spec, wl)
        _warm_up(name, spec, wl, idx)
        setup_reps.append(now() - t0)
        indexes.append(idx)

    # The copies share the warmed state, the engine's random generator included.
    indexes += [copy.deepcopy(indexes[0]) for _ in range(n_passes - len(indexes))]
    passes = [CorePass(name, spec, wl, indexes[-1 - j], n_distinct, n_calls)
              for j in range(n_passes)]
    del indexes
    tracer = None
    if trace:
        tracer = passes[1].tracer = Tracer()
        patches = _patches(tracer)
    cpus = _cpus()
    try:
        for n, (j, i) in enumerate(_schedule(n_units, n_passes, trace)):
            _pin(cpus[n % len(cpus)])
            if j == 1 and trace:
                patches.install()
                try:
                    passes[j].unit(i)
                finally:
                    patches.remove()
            else:
                passes[j].unit(i)
    finally:
        _pin(*cpus)

    # -- correctness --------------------------------------------------------
    first = passes[0]
    errors = [e for p in passes for e in p.errors + p.drain_errors[:1]]
    if name == "core-churn":
        for epoch in wl.epochs[: spec["warmup_epochs"] + n_units]:
            wl.apply(epoch)
    live_vids, live_vecs = wl.live_arrays()
    live = set(int(v) for v in live_vids)
    n_recall = min(len(first.results), RECALL_QUERIES)
    gt = live_vids[ground_truth_knn(live_vecs, wl.query_vecs[:n_recall], K)]
    recall = recall_at_k(first.results[:n_recall], gt, K)
    if recall < spec["recall_floor"]:
        errors.append(f"recall_at_10 {recall:.4f} is below the floor {spec['recall_floor']}")
    errors += _check_results(first.results, live)
    # Two runs of one seed, traced or not, must do exactly the same work.
    counts = first.counts()
    for p in passes[1:]:
        if p.counts() != counts:
            errors.append(f"two runs of the seed differ: {p.counts()} != {counts}")

    info = {
        "config": {**spec, "n_units": n_units, "engine": vars(first.idx.config)},
        "counts": counts,
        "setup_repeats_s": setup_reps,
        "process_setup_s": process_s,
    }
    if trace:
        metrics = _per_layer(tracer, passes[1], first)
    else:
        metrics, info["workload_metrics"] = _end_to_end(
            name, passes, recall, process_s + float(np.median(setup_reps)))
    return dict(errors=errors, attempted=sum(p.attempted for p in passes),
                failed=sum(p.failed for p in passes), metrics=metrics, info=info)


def _fastest_runs(passes: list[CorePass], attr: str) -> np.ndarray:
    """A list of timed units, each at its fastest pass."""
    runs = [getattr(p, attr) for p in passes]
    if len({len(r) for r in runs}) > 1:  # passes diverged: flagged as an error
        return np.asarray(min(runs, key=sum))
    return np.min(runs, axis=0)


def _end_to_end(name: str, passes: list[CorePass], recall: float, setup_s: float
                ) -> tuple[dict, dict]:
    """Wall-clock metrics from the fastest run of each repeated unit of work.

    The host slows for seconds at a time. core-search repeats every batch;
    core-churn runs every epoch on each of its identical indexes, seconds
    apart, and times each insert slice, job and search call. A unit's time is
    its fastest run, the time it takes when the host leaves the core alone.

    Returns the manifest's metrics, which both workloads print, and the
    figures only one workload has (printed under ``info``): core-search's
    per-call percentiles and core-churn's update-phase figures.
    """
    p = passes[0]
    if name == "core-search":
        call_s = np.full(p.n_distinct, np.inf)
        np.minimum.at(call_s, p.search_batch_ids, p.search_s)
        search_s, n_queries = float(call_s.sum()), p.n_distinct * p.spec["batch"]
        # 125 distinct batches at --seconds 25: 12 lie beyond p90
        extra = {
            "search_ms_p50": {"value": float(np.percentile(1e3 * call_s, 50)), "unit": "ms"},
            "search_ms_p90": {"value": float(np.percentile(1e3 * call_s, 90)), "unit": "ms"},
            "search_calls": {"value": len(call_s), "unit": "count"},
        }
    else:
        search_s = float(_fastest_runs(passes, "search_s").sum())
        n_queries = sum(p.search_q)
        update_s = float(_fastest_runs(passes, "update_s").sum())
        maintain_s = float(_fastest_runs(passes, "maintain_s").sum())
        n_updates = sum(p.update_ops)
        extra = {
            "update_ops_per_s": {"value": n_updates / update_s, "unit": "ops/s"},
            "maintain_us_per_update": {"value": 1e6 * maintain_s / n_updates, "unit": "us"},
            "epoch_s_mean": {"value": (update_s + maintain_s + search_s) / len(p.unit_s),
                             "unit": "s"},
            "sim_insert_us_mean": {"value": float(np.mean(p.sim_insert_us)),
                                   "unit": "sim_us"},
        }
    return {
        "setup_s": setup_s,
        "search_qps": n_queries / search_s,
        "recall_at_10": recall,
        "sim_search_us_p99": float(np.percentile(p.sim_search_us, 99)),
    }, extra
