"""Integration tests for the SPFresh engine (paper §3.2–§3.4, §4)."""
import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.baselines.spann_plus import build_spann_plus, spann_plus_config
from repro.blockstore.controller import BlockController, Posting
from repro.blockstore.ssd import SimulatedSSD
from repro.core import lire
from repro.core.distances import pairwise_sq_l2, topk_indices, topk_per_row
from repro.core.spfresh import SEARCH_SLICE, SPFreshConfig, SPFreshIndex
from repro.experiments import default_config
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

    def test_no_empty_posting(self, built):
        """The build keeps only the centroids that receive a vector; the
        clustering of this data gives 2 of its 174 centroids none."""
        idx, _ = built
        assert min(idx.posting_lengths().values()) > 0

    def test_deterministic(self):
        vecs = clustered_vectors(n=500, dim=8, n_clusters=8, seed=1)
        a = SPFreshIndex.build(vecs, np.arange(500), small_config(dim=8))
        b = SPFreshIndex.build(vecs, np.arange(500), small_config(dim=8))
        assert a.posting_lengths() == b.posting_lengths()

    @pytest.mark.parametrize("n_vids", [400, 200])
    def test_vids_not_matching_vecs_are_refused(self, n_vids):
        """300 vectors with 400 vids would register 100 vids that no
        posting holds; with 200 vids, 100 vectors would have no vid."""
        vecs = clustered_vectors(n=300, dim=8, n_clusters=4, seed=62)
        with pytest.raises(ValueError):
            SPFreshIndex.build(vecs, np.arange(n_vids), small_config(dim=8))


class TestOneConfig:
    def test_swapped_config_reaches_the_merge_trigger(self):
        """Fig. 10's sweep swaps ``idx.config`` between searches
        (``experiments._tradeoff_rows``); the Local Rebuilder's merge
        trigger reads the swapped config: with every posting under
        ``merge_limit``, a search queues a merge for each posting it probes."""
        vecs = clustered_vectors(n=500, dim=8, n_clusters=8, seed=63)
        idx = SPFreshIndex.build(vecs, np.arange(500), small_config(dim=8, nprobe=6))
        idx.config = dataclasses.replace(idx.config, merge_limit=10**6)
        probed = idx.centroid_index.search_batch(vecs[:1].astype(np.float64), 6)[0]
        idx.search(vecs[0], 10)
        assert list(idx.jobs) == [("merge", pid) for pid in probed.tolist()]
        assert len(idx.jobs) == 6


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

    def test_reinserted_vid_is_refused(self):
        """A vid is registered once. Re-inserting deleted vid 7 reset its
        version to 0, which made its old replicas live again: a search for
        its old vector found it."""
        vecs = clustered_vectors(n=500, dim=8, n_clusters=4, seed=46)
        idx = SPFreshIndex.build(vecs, np.arange(500), small_config(dim=8))
        idx.delete(7)
        with pytest.raises(ValueError):
            idx.insert(7, vecs[7] + 100.0)
        with pytest.raises(ValueError):
            idx.insert_batch(np.array([8]), vecs[8:9] + 100.0)
        assert idx.search(vecs[7], 1)[0].tolist() != [7]
        assert idx.search(vecs[8], 1)[0].tolist() == [8]

    @pytest.mark.parametrize("vids", [[1000, 1001, 5, 1002], [1000, 1001, 1000]])
    def test_refused_batch_inserts_nothing(self, vids):
        """A held or repeated vid refuses the whole batch, before any of it
        is inserted."""
        vecs = clustered_vectors(n=300, dim=8, n_clusters=4, seed=47)
        idx = SPFreshIndex.build(vecs, np.arange(300), small_config(dim=8))
        new = clustered_vectors(n=len(vids), dim=8, n_clusters=4, seed=48)
        before = copy.deepcopy(idx.stats), idx.ssd.counters.snapshot()
        with pytest.raises(ValueError):
            idx.insert_batch(np.array(vids), new)
        assert (idx.stats, idx.ssd.counters) == before
        assert 1000 not in idx.search(new[0], 10)[0]
        assert not idx.version_map.contains(1000)

    @pytest.mark.parametrize(
        "vids, shape",
        [([1000, 1001, 1002], (2, 8)), ([2000], (2, 8)), ([3000], (8,))],
        ids=["fewer-rows", "more-rows", "one-dimensional"],
    )
    def test_malformed_batch_inserts_nothing(self, vids, shape):
        """``vecs`` must be ``len(vids)`` rows of ``dim`` values; any other
        shape refuses the batch before a vid is registered, so the same vids
        insert afterwards with well-formed vectors."""
        vecs = clustered_vectors(n=300, dim=8, n_clusters=4, seed=47)
        idx = SPFreshIndex.build(vecs, np.arange(300), small_config(dim=8))
        new = clustered_vectors(n=len(vids) + 1, dim=8, n_clusters=4, seed=48)
        before = copy.deepcopy(idx.stats), idx.ssd.counters.snapshot()
        with pytest.raises(ValueError):
            idx.insert_batch(np.array(vids), new.ravel()[: np.prod(shape)].reshape(shape))
        assert (idx.stats, idx.ssd.counters) == before
        assert not any(idx.version_map.contains(v) for v in vids)
        assert len(idx.insert_batch(np.array(vids), new[: len(vids)])) == len(vids)
        assert all(v in idx.search(x, 3)[0] for v, x in zip(vids, new))

    def test_no_duplicate_vids_in_results(self, built):
        idx, vecs = built
        ids, _ = idx.search(vecs[0], 10)
        assert len(ids) == len(set(ids.tolist()))


def per_query_search(idx: SPFreshIndex, q: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """The Searcher before batching, kept as the reference: navigate, one
    ParallelGET, then per posting a staleness filter and replica dedupe, the
    merge trigger (live < merge_limit, empty postings included) and a
    distance scan."""
    cfg = idx.config
    q = np.asarray(q, dtype=np.float64)
    pids = idx.centroid_index.search(q, cfg.nprobe)
    postings, io = idx.controller.get_many([int(p) for p in pids])
    idx.stats.foreground_io_us += io
    scanned = 0
    all_vids, all_d = [], []
    for pid, posting in postings.items():
        scanned += len(posting)
        live = posting.take(~idx.version_map.is_stale(posting.vids, posting.versions))
        if len(live):  # the first replica of each vid within the posting
            _, first = np.unique(live.vids, return_index=True)
            live = live.take(np.sort(first))
        pending = idx._pending
        if (
            cfg.rebalance
            and len(live) < cfg.merge_limit
            and len(idx.centroid_index) > 1
            and ("merge", pid) not in pending
        ):
            pending.add(("merge", pid))
            idx.jobs.append(("merge", pid))
        if not len(live):
            continue
        all_vids.append(live.vids)
        all_d.append(pairwise_sq_l2(q[None, :], live.vecs)[0])
    lat = idx.latency.search_us(
        n_centroids_compared=len(idx.centroid_index), vectors_scanned=scanned,
        dim=cfg.dim, io_us=io,
    )
    if not all_vids:
        return np.empty(0, dtype=np.int64), lat
    vids, d = np.concatenate(all_vids), np.concatenate(all_d)
    order = np.lexsort((vids, d))
    vids, d = vids[order], d[order]
    _, first = np.unique(vids, return_index=True)
    vids, d = vids[first], d[first]
    return vids[topk_indices(d, k)], lat


def live_vids(idx: SPFreshIndex, pid: int) -> np.ndarray:
    """A posting's tuples that are not stale, duplicates kept."""
    p, _ = idx.controller.get(pid)
    return p.vids[~idx.version_map.is_stale(p.vids, p.versions)]


@pytest.fixture(scope="module")
def churned():
    """An index after churn, with queries that probe each hard case: stale
    replicas, a vid held twice by one posting after a merge, and a posting
    with no tuples."""
    return make_churned(None)


@pytest.fixture(scope="module")
def churned_small_blocks():
    """``churned`` over 15-tuple blocks, so most postings span several."""
    return make_churned(BlockController(SimulatedSSD(block_bytes=256), dim=8))


def make_churned(store: BlockController | None):
    idx = SPFreshIndex.build(
        clustered_vectors(n=1000, dim=8, n_clusters=8, seed=40), np.arange(1000),
        small_config(dim=8), store,
    )
    idx.insert_batch(np.arange(1000, 1400), clustered_vectors(n=400, dim=8, n_clusters=8, seed=41))
    for v in np.random.default_rng(0).choice(1000, 200, replace=False):
        idx.delete(int(v))
    idx.process_jobs()
    ctl = idx.controller
    # A merge appends a posting's live tuples to its target; a vid the
    # target already holds as a closure replica is then in it twice.
    for pid in ctl.posting_ids:
        target = lire.merge_target(idx.centroid_index, pid)
        shared = np.intersect1d(live_vids(idx, pid), live_vids(idx, target))
        if len(shared):
            break
    for v in np.setdiff1d(live_vids(idx, pid), shared[:1]):
        idx.delete(int(v))
    idx.jobs.append(("merge", pid))
    idx.process_jobs()
    dup = target
    # Leave the target one tuple short of the merge limit only once its
    # duplicate is dropped, as the live filter drops it.
    held = live_vids(idx, dup)
    for v in np.setdiff1d(held, shared[:1])[idx.config.merge_limit - 2 :]:
        idx.delete(int(v))
    # All of a posting deleted; its split job's GC rewrites it with no tuples.
    empty = next(p for p in ctl.posting_ids if p != dup and len(live_vids(idx, p)) > 3)
    for v in live_vids(idx, empty):
        idx.delete(int(v))
    idx.jobs.append(("split", empty, 0))
    idx.process_jobs()
    qs = np.vstack([
        idx.centroid_index.centroids([dup, empty]),
        clustered_vectors(n=60, dim=8, n_clusters=8, seed=42),
    ])
    return idx, qs, dup, empty


class TestBatchedSearch:
    """search_batch gives what the per-query Searcher gave, with the same
    I/O accounting and the same merge jobs queued."""

    def test_fixture_holds_the_hard_cases(self, churned):
        idx, _, dup, empty = churned
        held = live_vids(idx, dup)
        assert len(held) == idx.config.merge_limit
        assert len(np.unique(held)) == idx.config.merge_limit - 1
        assert idx.controller.length(empty) == 0
        stale = sum(
            idx.controller.length(p) - len(live_vids(idx, p)) for p in idx.controller.posting_ids
        )
        assert stale > 0
        assert not idx.jobs

    def test_matches_per_query_searcher(self, churned):
        idx, qs, dup, empty = churned
        ref, new = copy.deepcopy(idx), copy.deepcopy(idx)
        want = [per_query_search(ref, q, 10) for q in qs]
        ids, lats = new.search_batch(qs, 10)
        for (w_ids, w_lat), got, lat in zip(want, ids, lats):
            np.testing.assert_array_equal(got, w_ids)
            assert lat == w_lat
        assert {("merge", dup), ("merge", empty)} <= new._pending
        assert list(new.jobs) == list(ref.jobs)
        assert new._pending == ref._pending
        assert new.ssd.counters == ref.ssd.counters
        assert new.stats == ref.stats

    def test_batch_size_does_not_change_answers(self, churned):
        """Batches of one query, of one slice, one query over a slice and
        all queries at once (several slices) answer as the per-query
        Searcher does."""
        idx, qs, _, _ = churned
        qs = np.vstack([qs, clustered_vectors(n=2 * SEARCH_SLICE, dim=8, n_clusters=8, seed=49)])
        ref = copy.deepcopy(idx)
        want = [per_query_search(ref, q, 10) for q in qs]
        for batch in (1, SEARCH_SLICE, SEARCH_SLICE + 1, len(qs)):
            run = copy.deepcopy(idx)
            ids, lats = [], []
            for lo in range(0, len(qs), batch):
                i, l = run.search_batch(qs[lo : lo + batch], 10)
                ids += i
                lats.append(l)
            assert len(ids) == len(qs)
            for (w_ids, w_lat), got, lat in zip(want, ids, np.concatenate(lats)):
                np.testing.assert_array_equal(got, w_ids)
                assert lat == w_lat
            assert list(run.jobs) == list(ref.jobs)
            assert run._pending == ref._pending
            assert run.ssd.counters == ref.ssd.counters and run.stats == ref.stats

    def test_equal_vectors_ranked_by_vid(self):
        """Vids that hold the same vector tie on distance; the lower vids
        win, also where k cuts through the tie."""
        rng = np.random.default_rng(50)
        vecs = np.round(clustered_vectors(n=400, dim=8, n_clusters=4, seed=50))
        idx = SPFreshIndex.build(vecs, np.arange(400), small_config(dim=8))
        # 14 more vids holding vector 7, in shuffled arrival order, and 3 holding vector 9
        extra = np.concatenate([rng.permutation(np.arange(1000, 1014)), [2002, 2000, 2001]])
        idx.insert_batch(extra, vecs[[7] * 14 + [9] * 3])
        qs = np.vstack([vecs[[7, 9]], vecs[[7]] + 0.5, vecs[:5]])
        ref = copy.deepcopy(idx)
        ids, _ = idx.search_batch(qs, 10)
        for q, got in zip(qs, ids):
            np.testing.assert_array_equal(got, per_query_search(ref, q, 10)[0])
        np.testing.assert_array_equal(ids[0], [7, *range(1000, 1009)])
        np.testing.assert_array_equal(ids[1][:4], [9, 2000, 2001, 2002])
        np.testing.assert_array_equal(ids[2], [7, *range(1000, 1009)])

    def test_read_of_empty_posting_queues_its_merge(self, churned):
        """A read that finds 0 live tuples queues a merge, as any read under
        the merge limit does; the merge then deletes the posting."""
        idx, qs, _, empty = churned
        run = copy.deepcopy(idx)
        run.search_batch(qs[1:2], 10)  # the empty posting's centroid
        assert ("merge", empty) in run._pending
        run.process_jobs()
        assert not run.controller.exists(empty) and empty not in run.centroid_index

    def test_search_is_a_batch_of_one(self, churned):
        idx, qs, _, _ = churned
        one, batch = copy.deepcopy(idx), copy.deepcopy(idx)
        ids, lat = one.search(qs[3], 10)
        b_ids, b_lats = batch.search_batch(qs[3:4], 10)
        np.testing.assert_array_equal(ids, b_ids[0])
        assert lat == b_lats[0] and isinstance(lat, float)

    def test_empty_index_answers_nothing(self):
        idx = SPFreshIndex(small_config(dim=8))
        ids, lats = idx.search_batch(np.zeros((2, 8)), 5)
        assert [len(i) for i in ids] == [0, 0] and len(lats) == 2


def reference_live_rows(
    idx: SPFreshIndex, postings: list[Posting]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``SPFreshIndex.live_rows`` before the flat row batch: the postings'
    concatenated vids, the live places, each (posting, vid) key's first
    place from ``np.unique``, and each posting's live count."""
    seg = np.repeat(np.arange(len(postings)), [len(p) for p in postings])
    vids = np.concatenate([p.vids for p in postings])
    stale = idx.version_map.is_stale(vids, np.concatenate([p.versions for p in postings]))
    live = np.flatnonzero(~stale)
    if len(live):
        key = seg[live] * (int(vids[live].max()) + 1) + vids[live]
        _, first = np.unique(key, return_index=True)
        live = np.sort(live[first])
    return vids, live, np.bincount(seg[live], minlength=len(postings))


def reference_search_slice(
    idx: SPFreshIndex, qs: np.ndarray, k: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """The Searcher's slice (read step and scan) as it was before the flat
    row batch, kept as the reference: the postings by pid, a dedupe and
    columns found with ``np.unique``, and the scanned rows' norms computed
    by ``pairwise_sq_l2``."""
    probed = idx.centroid_index.search_batch(qs, idx.config.nprobe)
    batch, ios = idx.controller.get_batch(probed.tolist())
    ends = np.cumsum(batch.lens).tolist()
    postings = {
        pid: batch.rows.slice(hi - n, hi)
        for pid, n, hi in zip(batch.pids.tolist(), batch.lens.tolist(), ends)
    }
    for io in ios:
        idx.stats.foreground_io_us += io
    fetched = list(postings.values())
    rows = None
    if postings:
        rows = reference_live_rows(idx, fetched)
        idx.read(list(postings), rows[2].tolist())
    pids = np.fromiter(postings, dtype=np.int64, count=len(fetched))
    by_pid = np.argsort(pids)
    slot = by_pid[np.searchsorted(pids[by_pid], probed)]
    on_disk = np.array([len(p.vids) for p in fetched], dtype=np.int64)
    lats = idx.latency.search_us(
        n_centroids_compared=len(idx.centroid_index),
        vectors_scanned=on_disk[slot].sum(axis=1),
        dim=idx.config.dim,
        io_us=np.asarray(ios),
    )
    if rows is None:
        return [np.empty(0, dtype=np.int64) for _ in qs], lats
    all_vids, live, n_live = rows
    lens = n_live[slot].ravel()
    begin = np.cumsum(n_live) - n_live
    at = np.repeat(begin[slot].ravel() - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
    query = np.repeat(np.arange(slot.size) // slot.shape[1], lens)
    vids, col = np.unique(all_vids[live], return_inverse=True)
    rep = np.empty(len(vids), dtype=np.int64)
    rep[col] = live
    d = pairwise_sq_l2(qs, np.concatenate([p.vecs for p in fetched])[rep].astype(np.float64))
    cells = (query, col[at])
    held = np.full(d.shape, np.inf)
    held[cells] = d[cells]
    r, c = topk_per_row(held, k)
    return np.split(vids[c], np.searchsorted(r, np.arange(1, len(qs)))), lats


class TestScanMatchesReference:
    """The flat batch's scan (cached norms, mark-table columns, sorted-key
    replica dedupe) gives what the ``np.unique`` scan gave: the same ids,
    simulated µs and merge jobs, on an index with deletes, stale replicas
    left by reassigns, a vid held twice by one posting after a merge and
    a posting with no tuples."""

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("fixture", ["churned", "churned_small_blocks"])
    def test_same_ids_latencies_and_merge_jobs(self, request, fixture, batch):
        idx, qs, dup, empty = request.getfixturevalue(fixture)
        qs = np.vstack([qs, clustered_vectors(n=30, dim=8, n_clusters=8, seed=48)])
        run, ref = copy.deepcopy(idx), copy.deepcopy(idx)
        qs = qs.astype(np.float64)
        for lo in range(0, len(qs), batch):
            ids, lats = run.search_batch(qs[lo : lo + batch], 10)
            want_ids, want_lats = reference_search_slice(ref, qs[lo : lo + batch], 10)
            assert len(ids) == len(want_ids)
            for got, want in zip(ids, want_ids):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            assert lats.tolist() == want_lats.tolist()
        assert {("merge", dup), ("merge", empty)} <= run._pending
        assert list(run.jobs) == list(ref.jobs)
        assert run._pending == ref._pending
        assert run.ssd.counters == ref.ssd.counters and run.stats == ref.stats

    def test_live_rows_keeps_the_reference_places(self):
        """Postings with replicas repeated within them (in any order), stale
        versions and deleted vids: the same live places as ``np.unique``'s
        first places, and the same counts."""
        rng = np.random.default_rng(47)
        idx = SPFreshIndex(small_config(dim=2))
        idx.version_map.add_many(np.arange(60))
        idx.version_map.bump_cas_many(np.arange(0, 60, 7), np.zeros(9, dtype=np.int16))
        for v in range(3, 60, 11):
            idx.delete(v)
        for trial in range(20):
            sizes = rng.integers(0, 30, size=rng.integers(1, 8))
            postings = [
                Posting(rng.integers(0, 60, n), rng.integers(0, 2, n).astype(np.int16),
                        np.zeros((n, 2), np.float32))
                for n in sizes
            ]
            rows = Posting.concat(postings) if sizes.any() else Posting.empty(2)
            live, n_live = idx.live_rows(rows, sizes)
            _, want_live, want_n = reference_live_rows(idx, postings)
            np.testing.assert_array_equal(live, want_live)
            np.testing.assert_array_equal(n_live, want_n)


class TestBatchedInsert:
    def test_matches_per_vector_inserts(self):
        vecs = clustered_vectors(n=500, dim=8, n_clusters=4, seed=43)
        a = SPFreshIndex.build(vecs, np.arange(500), small_config(dim=8))
        b = copy.deepcopy(a)
        new = clustered_vectors(n=200, dim=8, n_clusters=4, seed=44)
        lat_a = a.insert_batch(np.arange(500, 700), new)
        lat_b = np.asarray([b.insert(int(v), x) for v, x in zip(np.arange(500, 700), new)])
        np.testing.assert_array_equal(lat_a, lat_b)
        assert a.jobs and list(a.jobs) == list(b.jobs)
        assert a.stats == b.stats and a.ssd.counters == b.ssd.counters
        for pid in a.controller.posting_ids:
            np.testing.assert_array_equal(
                a.controller.get(pid)[0].vids, b.controller.get(pid)[0].vids
            )

    def test_empty_batch(self):
        vecs = clustered_vectors(n=100, dim=8, n_clusters=4, seed=45)
        idx = SPFreshIndex.build(vecs, np.arange(100), small_config(dim=8))
        assert len(idx.insert_batch(np.empty(0, np.int64), np.empty((0, 8)))) == 0

    def test_stored_tuples_do_not_alias_the_callers_arrays(self):
        """An APPEND that starts a fresh block stores its tail as given, so
        a caller that reuses its arrays after the insert must change no
        stored tuple. Blocks of 3 tuples make many appends start one."""
        vecs = clustered_vectors(n=340, dim=8, n_clusters=4, seed=63)
        store = BlockController(SimulatedSSD(block_bytes=64), 8)
        idx = SPFreshIndex.build(vecs[:300], np.arange(300), small_config(dim=8), store)
        vids, new = np.arange(300, 340), vecs[300:].copy()
        want = dict(zip(vids.tolist(), new.copy()))
        idx.insert_batch(vids, new)
        vids[:] = 0
        new[:] = -1.0
        seen = set()
        for pid in store.posting_ids:
            p, _ = store.get(pid)
            for vid, vec in zip(p.vids.tolist(), p.vecs):
                if vid >= 300:
                    np.testing.assert_array_equal(vec, want[vid], err_msg=f"vid {vid}")
                    seen.add(vid)
        assert seen == set(want)


class TestVidChecks:
    """The Updater changes only the vids it holds: numpy reads a negative
    vid as a version-map slot counted from the end, another vid's."""

    def test_delete_of_negative_vid_raises(self):
        vecs = clustered_vectors(n=2048, dim=8, n_clusters=4, seed=57)
        idx = SPFreshIndex.build(vecs, np.arange(2048), small_config(dim=8))
        with pytest.raises(KeyError):
            idx.delete(-1)
        assert not idx.version_map.is_deleted(2047) and idx.stats.deletes == 0
        assert 2047 in idx.search(vecs[2047], 5)[0]

    def test_insert_of_negative_vid_is_refused(self):
        vecs = clustered_vectors(n=300, dim=8, n_clusters=4, seed=58)
        idx = SPFreshIndex.build(vecs, np.arange(300), small_config(dim=8))
        new = clustered_vectors(n=2, dim=8, n_clusters=4, seed=59)
        before = copy.deepcopy(idx.stats), idx.ssd.counters.snapshot()
        with pytest.raises(ValueError):
            idx.insert_batch(np.array([-5]), new[:1])
        with pytest.raises(ValueError):
            idx.insert(-5, new[0])
        assert (idx.stats, idx.ssd.counters) == before
        idx.insert(1019, new[1])  # -5 is slot 1019 of the 1024-slot map
        assert 1019 in idx.search(new[1], 3)[0]

    @pytest.mark.parametrize("vid", [300, 5000])
    def test_delete_of_unregistered_vid_raises(self, vid):
        vecs = clustered_vectors(n=300, dim=8, n_clusters=4, seed=60)
        idx = SPFreshIndex.build(vecs, np.arange(300), small_config(dim=8))
        entries = idx.version_map.entries()
        with pytest.raises(KeyError):
            idx.delete(vid)
        assert idx.stats.deletes == 0
        for got, want in zip(idx.version_map.entries(), entries):
            np.testing.assert_array_equal(got, want)

    def test_second_delete_changes_nothing(self):
        vecs = clustered_vectors(n=300, dim=8, n_clusters=4, seed=61)
        idx = SPFreshIndex.build(vecs, np.arange(300), small_config(dim=8))
        idx.delete(7)
        before = copy.deepcopy(idx.stats)
        idx.delete(7)
        assert idx.stats == before and idx.stats.deletes == 1
        assert idx.version_map.is_deleted(7)


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
            live = idx.live(p)
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
            live = idx.live(p)
            for v in live.vids:
                membership.setdefault(int(v), set()).add(pid)
        live_vecs = np.vstack([vecs, new])  # vids 0–899: nothing is deleted
        viol = 0
        for vid, vec in enumerate(live_vecs):
            nearest = int(alive[pairwise_sq_l2(vec[None, :], cents)[0].argmin()])
            if nearest not in membership.get(vid, set()):
                viol += 1
        assert viol / len(live_vecs) < 0.02  # near-perfect NPA compliance

    def test_reassign_stats_counted(self):
        vecs = clustered_vectors(n=500, dim=8, n_clusters=4, seed=16)
        idx = SPFreshIndex.build(vecs, np.arange(500), small_config(dim=8))
        idx.insert_batch(np.arange(500, 800), clustered_vectors(n=300, dim=8, n_clusters=4, seed=17))
        idx.process_jobs()
        s = idx.stats
        assert s.reassign_jobs > 0
        assert s.reassign_evaluated >= s.reassign_moved

    def test_one_store_read_per_reassign_job(self):
        """A reassign job reads the split postings and their neighbours
        with one ``get_batch`` of two requests."""
        vecs = clustered_vectors(n=500, dim=8, n_clusters=4, seed=16)
        idx = SPFreshIndex.build(vecs, np.arange(500), small_config(dim=8))
        idx.insert_batch(np.arange(500, 800), clustered_vectors(n=300, dim=8, n_clusters=4, seed=17))
        store, reads = idx.controller, []
        get_batch = store.get_batch

        def counted(requests):
            reads.append(len(requests))
            return get_batch(requests)

        store.get_batch = counted
        reassigns = 0
        while idx.jobs:
            kind = idx.jobs[0][0]
            reads.clear()
            idx.process_jobs(max_jobs=1)
            if kind == "reassign":
                assert reads == [2]
                reassigns += 1
        assert reassigns > 0

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
            stored.update(int(v) for v in idx.live(p).vids)
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


def per_posting_live(rebuilder: SPFreshIndex, posting: Posting) -> Posting:
    """A posting's tuples that are not stale, first replica of each vid."""
    live = posting.take(~rebuilder.version_map.is_stale(posting.vids, posting.versions))
    _, first = np.unique(live.vids, return_index=True)
    return live.take(np.sort(first))


class PerPostingRebuilder(SPFreshIndex):
    """The Local Rebuilder before a reassign job screened once, kept as the
    reference: a reassign job filters and screens each fetched posting on
    its own, and SPANN+ queues a GC job kind of its own. Its merge trigger
    is the shared one (live < merge_limit, empty postings included)."""

    def check_split(self, pid: int, depth: int) -> None:
        if not self.controller.exists(pid):
            return
        length = self.controller.length(pid)
        if length <= self.config.split_limit:
            return
        if self.config.rebalance:
            if ("split", pid) not in self._pending:
                self._pending.add(("split", pid))
                self.jobs.append(("split", pid, depth))
        elif length % self.config.split_limit == 0:
            if ("gc", pid) not in self._pending:
                self._pending.add(("gc", pid))
                self.jobs.append(("gc", pid))

    def process_jobs(self, max_jobs: int | None = None) -> int:
        done = 0
        while self.jobs and (max_jobs is None or done < max_jobs):
            job = self.jobs.popleft()
            kind = job[0]
            if kind in ("split", "gc", "merge"):
                self._pending.discard((kind, job[1]))
            if kind == "split":
                self._split(job[1], job[2])
            elif kind == "gc":
                self._gc(job[1])
            elif kind == "merge":
                self._merge(job[1])
            elif kind == "reassign":
                self._reassign(*job[1:])
            done += 1
        return done

    def _gc(self, pid: int) -> None:
        if not self.controller.exists(pid):
            return
        posting, io = self.controller.get(pid)
        live = per_posting_live(self, posting)
        io += self.controller.put(pid, live)
        self.stats.gc_rewrites += 1
        self.stats.background_io_us += io

    def _reassign(self, old_centroid, new_pids, new_centroids, depth) -> None:
        cfg = self.config
        self.stats.reassign_jobs += 1
        split_alive = [p for p in new_pids if self.controller.exists(p)]
        scope = lire.reassign_scope(self.centroid_index, old_centroid, new_pids, cfg.reassign_range)
        nbr = [p for p in scope if self.controller.exists(p)]
        candidates, cand_from = [], []
        for pids in (split_alive, nbr):
            postings, io = self.controller.get_many(pids)
            self.stats.background_io_us += io
            for pid, posting in postings.items():
                live = per_posting_live(self, posting)
                if not len(live):
                    continue
                self.stats.reassign_evaluated += len(live)
                condition = lire.condition_one if pid in new_pids else lire.condition_two
                mask = condition(live.vecs, old_centroid, new_centroids)
                if mask.any():
                    candidates.append(live.take(np.flatnonzero(mask)))
                    cand_from.append(np.full(int(mask.sum()), pid, dtype=np.int64))
        if not candidates:
            return
        evaluated = self._move(Posting.concat(candidates), np.concatenate(cand_from), depth)
        self.stats.background_cpu_us += self.latency.scan_us(evaluated, cfg.dim)

    def _move(self, cands: Posting, cur_pids: np.ndarray, depth: int) -> int:
        """The move step before it grouped targets with one sort: one
        ``plan.pids == pid`` mask per target, in first-seen order."""
        plan = lire.plan_moves(
            cands.vids, cands.versions, cands.vecs, cur_pids,
            self.centroid_index, self.version_map, self.config,
        )
        self.stats.reassign_moved += plan.moved
        self.stats.reassign_aborted_cas += plan.aborted
        moved = Posting(plan.vids, plan.versions.astype(np.int16), plan.vecs)
        targets, first = np.unique(plan.pids, return_index=True)
        io = 0.0
        for pid in targets[np.argsort(first)].tolist():
            io += self.controller.append(pid, moved.take(np.flatnonzero(plan.pids == pid)))
            self.check_split(pid, depth + 1)
        self.stats.background_io_us += io
        return plan.evaluated


def job_key(job: tuple) -> tuple:
    """A queued job comparable with ``==``; the reference's GC job is the
    split job SPANN+ queues (always at depth 0: only inserts queue it)."""
    if job[0] == "gc":
        return ("split", job[1], 0)
    return tuple(x.tolist() if isinstance(x, np.ndarray) else x for x in job)


def assert_same_state(a: SPFreshIndex, ref: SPFreshIndex) -> None:
    """``ref`` runs a :class:`PerPostingRebuilder`."""
    assert a.ssd.counters == ref.ssd.counters  # before the reads below
    assert a.stats == ref.stats
    assert [job_key(j) for j in a.jobs] == [job_key(j) for j in ref.jobs]
    assert a._pending == {
        ("split" if k == "gc" else k, pid) for k, pid in ref._pending
    }
    for x, y in zip(a.version_map.entries(), ref.version_map.entries()):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(a.centroid_index.alive_ids, ref.centroid_index.alive_ids)
    assert list(a.controller.posting_ids) == list(ref.controller.posting_ids)
    for pid in a.controller.posting_ids:
        p, q = a.controller.get(pid)[0], ref.controller.get(pid)[0]
        for field in ("vids", "versions", "vecs"):
            np.testing.assert_array_equal(getattr(p, field), getattr(q, field))


def drain_in_step(idx: SPFreshIndex, ref: SPFreshIndex) -> list[str]:
    """Run both queues job by job, comparing after each; returns the kinds run."""
    kinds = []
    while idx.jobs:
        kinds.append(idx.jobs[0][0])
        assert idx.process_jobs(max_jobs=1) == ref.process_jobs(max_jobs=1) == 1
        assert_same_state(idx, ref)
    assert not ref.jobs
    return kinds


class TestRebuilderMatchesPerPostingReference:
    """One live filter and one screening call per reassign job, SPANN+'s GC
    as the split job, and a move's rows grouped by target with one sort,
    leave every posting, queued job and counter as the per-posting Local
    Rebuilder left them."""

    def test_reassign_jobs(self):
        cfg = small_config(dim=8, reassign_range=64)
        idx = SPFreshIndex.build(
            clustered_vectors(n=1000, dim=8, n_clusters=8, seed=50), np.arange(1000), cfg
        )
        ref = copy.deepcopy(idx)
        ref.__class__ = PerPostingRebuilder
        qs = clustered_vectors(n=40, dim=8, n_clusters=8, seed=51)
        rng = np.random.default_rng(52)
        kinds = []
        for epoch in range(3):
            held, _, deleted = idx.version_map.entries()
            dels = rng.choice(held[~deleted], 150, replace=False)
            # shuffled, so a posting's tuple order is not its vid order
            vids = 1000 + 300 * epoch + rng.permutation(300)
            new = clustered_vectors(n=300, dim=8, n_clusters=8, seed=53 + epoch)
            for run in (idx, ref):
                for v in dels:
                    run.delete(int(v))
                run.insert_batch(vids, new)
                run.search_batch(qs, 10)
            assert_same_state(idx, ref)
            kinds += drain_in_step(idx, ref)
        assert kinds.count("reassign") > 10
        assert idx.stats.max_cascade_depth >= 1  # a split caused by a split's moves
        assert idx.stats.reassign_moved > 0 and idx.stats.gc_rewrites > 0

    def test_spann_plus_gc_is_the_split_job(self):
        vecs = clustered_vectors(n=500, dim=8, n_clusters=4, seed=54)
        idx = build_spann_plus(vecs, np.arange(500), small_config(dim=8))
        ref = copy.deepcopy(idx)
        ref.__class__ = PerPostingRebuilder
        new = clustered_vectors(n=900, dim=8, n_clusters=4, seed=55)
        vids = 500 + np.random.default_rng(56).permutation(900)  # tuple order is not vid order
        for lo in range(0, 900, 150):
            for run in (idx, ref):
                for v in range(lo // 3, lo // 3 + 50):
                    run.delete(v)
                run.insert_batch(vids[lo : lo + 150], new[lo : lo + 150])
            assert_same_state(idx, ref)
            assert set(drain_in_step(idx, ref)) <= {"split"}
        assert idx.stats.gc_rewrites > 0 and idx.stats.splits == 0


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

    def test_build_retains_only_its_stored_tuples_and_metadata(self):
        """The engine keeps no vector in memory besides the stored tuples
        (paper §4): the centroids, version map and Block Mapping are small
        next to them, so a build retains at most 1.5× the tuples' bytes.
        A DRAM copy of every vector took it to about 2×."""
        vecs = clustered_vectors(n=8000, dim=32, seed=0)
        vids = np.arange(8000)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            idx = SPFreshIndex.build(vecs, vids, default_config())
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        stored = sum(idx.posting_lengths().values()) * (8 + 2 + 4 * 32)
        assert retained <= 1.5 * stored, (retained, stored)

    def test_live_vid_count_of_a_churned_index(self):
        """``_vecs``, the count behind perfbench's ``ssd.space_amp``, is the
        registered vids that are not deleted."""
        vecs = clustered_vectors(n=500, dim=8, n_clusters=4, seed=16)
        idx = SPFreshIndex.build(vecs, np.arange(500), small_config(dim=8))
        gone = set(range(0, 500, 3)) | {600}
        for v in range(0, 500, 3):
            idx.delete(v)
        idx.insert_batch(np.arange(500, 800), clustered_vectors(n=300, dim=8, n_clusters=4, seed=17))
        idx.delete(600)
        idx.delete(600)
        idx.search_batch(vecs[:40], 10)
        idx.process_jobs()
        assert idx.stats.splits > 0 and idx.stats.merges + idx.stats.reassign_moved > 0
        assert len(idx._vecs) == 800 - len(gone)
        assert sorted(idx._vecs) == sorted(set(range(800)) - gone)


def traced_peak_mb(fn):
    """``fn()`` and the MB it allocates at its peak above what was live
    before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, (tracemalloc.get_traced_memory()[1] - start) / 1e6
    finally:
        tracemalloc.stop()


class TestScratchMemory:
    def test_build_and_batch_insert_stay_within_16_mb_of_scratch(self):
        """Closure assignment forms its distances a block of rows at a time.
        Forming all 8k × ~400 at once made each of these peak near 50 MB."""
        vecs = clustered_vectors(n=16_000, dim=32, seed=0)
        idx, build_mb = traced_peak_mb(
            lambda: SPFreshIndex.build(vecs[:8000], np.arange(8000), default_config())
        )
        _, insert_mb = traced_peak_mb(
            lambda: idx.insert_batch(np.arange(8000, 16_000), vecs[8000:])
        )
        assert build_mb <= 16 and insert_mb <= 16, (build_mb, insert_mb)
