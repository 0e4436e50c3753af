"""Tests for the LIRE planner (paper §3.3, §4.2).

The key property of the conditions: they are *necessary* — any vector
whose true nearest centroid actually changed relative to a nearby posting
must satisfy the applicable condition. We verify this with randomized
geometric scenarios (hypothesis) by constructing splits and checking that
no NPA violation escapes the condition filter. The planner's other
decisions (closure assignment, split, the final NPA check with CAS) are
checked against a per-row reference and on hand-built cases.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import lire
from repro.core.centroid_index import CentroidIndex
from repro.core.clustering import balanced_two_means
from repro.core.distances import pairwise_sq_l2
from repro.core.lire import (
    build_layout,
    closure_assign,
    condition_one,
    condition_two,
    plan_moves,
    reassign_candidate_mask,
    split,
)
from repro.core.spfresh import SPFreshConfig
from repro.core.version_map import VersionMap
from repro.experiments import default_config
from repro.synth_data import clustered_vectors


def figure4_scenario():
    """The paper's Figure 4 geometry in 2-D.

    Posting A at origin splits into A1 (left) and A2 (right); posting B
    sits to the right. The 'yellow dot' was in A, lands in A2, but B is
    now its true nearest. The 'green dot' is in B but A2's new centroid
    is closer than B's.
    """
    a_old = np.array([0.0, 0.0])
    a1 = np.array([-1.5, 0.0])
    a2 = np.array([1.5, 0.0])
    b = np.array([0.0, 2.5])
    # yellow: was in A (d_old=1.44 <= d_B=1.69); after the split both new
    # centroids are farther (3.69) so B becomes its true nearest.
    yellow = np.array([0.0, 1.2])
    # green: was in B (d_B=3.40 <= d_old=3.65); after the split A2 is
    # closer (1.70) than B.
    green = np.array([1.4, 1.3])
    return a_old, np.stack([a1, a2]), b, yellow, green


class TestFigure4:
    def test_yellow_dot_flagged_by_condition_one(self):
        a_old, new, b, yellow, _ = figure4_scenario()
        # sanity: B is truly nearest for the yellow dot after the split
        d = pairwise_sq_l2(yellow[None, :], np.vstack([new, b[None, :]]))[0]
        assert d.argmin() == 2
        assert condition_one(yellow[None, :], a_old, new)[0]

    def test_green_dot_flagged_by_condition_two(self):
        a_old, new, b, _, green = figure4_scenario()
        d = pairwise_sq_l2(green[None, :], np.vstack([new, b[None, :]]))[0]
        assert d.argmin() == 1  # A2 beats B now
        assert condition_two(green[None, :], a_old, new)[0]

    def test_interior_vector_not_flagged(self):
        a_old, new, b, _, _ = figure4_scenario()
        # a vector right next to A1's new centroid: clearly fine, cond 1 false
        v = np.array([[-1.5, 0.05]])
        assert not condition_one(v, a_old, new)[0]

    def test_far_vector_in_b_not_flagged(self):
        a_old, new, b, _, _ = figure4_scenario()
        v = np.array([[0.0, 4.0]])  # deep inside B's territory
        assert not condition_two(v, a_old, new)[0]


class TestConditionSemantics:
    def test_condition_one_requires_all_new_farther(self):
        a_old = np.zeros(2)
        new = np.array([[0.1, 0.0], [5.0, 0.0]])
        v = np.array([[0.08, 0.0]])  # closer to new[0] than to a_old
        assert not condition_one(v, a_old, new)[0]

    def test_condition_two_requires_any_new_closer(self):
        a_old = np.zeros(2)
        new = np.array([[3.0, 0.0], [0.0, 3.0]])
        v = np.array([[2.0, 0.0]])  # new[0] at d=1 beats a_old at d=4
        assert condition_two(v, a_old, new)[0]
        far = np.array([[-5.0, 0.0]])  # both new centroids worse than a_old
        assert not condition_two(far, a_old, new)[0]

    def test_dispatch(self):
        a_old, new, _, yellow, green = figure4_scenario()
        both = np.stack([yellow, green])
        np.testing.assert_array_equal(
            reassign_candidate_mask(both, a_old, new, np.array([True, False])), [True, True]
        )
        np.testing.assert_array_equal(
            reassign_candidate_mask(both, a_old, new, np.array([False, True])), [False, False]
        )

    def test_mixed_flags_equal_the_per_kind_calls(self):
        """One screening call over rows of split and of neighbor postings
        equals condition 1 on the first and condition 2 on the second."""
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(200, 8))
        a_old = rng.normal(size=8) * 0.3
        new = a_old + rng.normal(size=(2, 8)) * 0.3
        in_split = rng.random(200) < 0.4
        got = reassign_candidate_mask(vecs, a_old, new, in_split)
        np.testing.assert_array_equal(got[in_split], condition_one(vecs[in_split], a_old, new))
        np.testing.assert_array_equal(got[~in_split], condition_two(vecs[~in_split], a_old, new))
        # the two kinds disagree on these rows, so a call that ignores the flags fails
        assert (condition_one(vecs, a_old, new) != condition_two(vecs, a_old, new)).sum() > 50
        # and both are the paper's formulas, computed here row by row
        d_old = ((vecs - a_old) ** 2).sum(axis=1)
        d_new = ((vecs[:, None, :] - new[None]) ** 2).sum(axis=2)
        want = np.where(
            in_split, (d_old[:, None] <= d_new).all(axis=1), (d_new <= d_old[:, None]).any(axis=1)
        )
        np.testing.assert_array_equal(got, want)

    def test_boundary_equality_is_included(self):
        # D(v, A_o) == D(v, A_i): conditions use <=, so v must be flagged
        a_old = np.array([0.0, 0.0])
        new = np.array([[2.0, 0.0], [0.0, 2.0]])
        v = np.array([[1.0, 0.0]])  # equidistant to a_old and new[0]
        assert condition_two(v, a_old, new)[0]


@st.composite
def split_scenario(draw):
    """Random posting + neighbor geometry for the necessity property."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    dim = draw(st.sampled_from([2, 3, 8]))
    n = draw(st.integers(10, 60))
    pts = rng.normal(0, 1, (n, dim)) * 10
    nbr_centroid = rng.normal(0, 1, dim) * 10 + 5
    return pts, nbr_centroid


class TestNecessityProperty:
    @given(split_scenario())
    @settings(max_examples=60, deadline=None)
    def test_condition_one_is_necessary(self, scenario):
        """Any split-posting vector whose true nearest moved to the
        neighbor centroid must pass condition 1."""
        pts, b = scenario
        a_old = pts.mean(axis=0)
        new_centroids, labels = balanced_two_means(pts, seed=0)
        for i, v in enumerate(pts):
            own_new = new_centroids[labels[i]]
            d_b = pairwise_sq_l2(v[None, :], b[None, :])[0, 0]
            d_own = pairwise_sq_l2(v[None, :], own_new[None, :])[0, 0]
            d_other = pairwise_sq_l2(v[None, :], new_centroids)[0].min()
            npa_broken = d_b < min(d_own, d_other)
            # NPA precondition of the proof: v belonged to A, so
            # D(v, A_o) <= D(v, B) held before the split.
            d_old = pairwise_sq_l2(v[None, :], a_old[None, :])[0, 0]
            if npa_broken and d_old <= d_b:
                assert condition_one(v[None, :], a_old, new_centroids)[0]

    @given(split_scenario())
    @settings(max_examples=60, deadline=None)
    def test_condition_two_is_necessary(self, scenario):
        """Any neighbor-posting vector whose true nearest became one of
        the new centroids must pass condition 2."""
        pts, b = scenario
        a_old = pts.mean(axis=0)
        new_centroids, _ = balanced_two_means(pts, seed=0)
        rng = np.random.default_rng(1)
        nbr_pts = b + rng.normal(0, 3, (30, len(b)))
        d_new = pairwise_sq_l2(nbr_pts, new_centroids).min(axis=1)
        d_b = pairwise_sq_l2(nbr_pts, b[None, :])[:, 0]
        d_old = pairwise_sq_l2(nbr_pts, a_old[None, :])[:, 0]
        moved = d_new < d_b
        # NPA precondition: these vectors belonged to B, so D(v,B) <= D(v,A_o)
        applicable = moved & (d_b <= d_old)
        flagged = condition_two(nbr_pts, a_old, new_centroids)
        assert (flagged | ~applicable).all()


def closure_loop(d: np.ndarray, max_replicas: int, eps: float) -> list[np.ndarray]:
    """Per-row reference for closure assignment over a distance matrix: a
    full sort of each row in (distance, column) order, cut at the cap."""
    out = []
    for row in d:
        cand = np.lexsort((np.arange(len(row)), row))[:max_replicas]
        dist = row[cand]
        out.append(cand[dist <= (1.0 + eps) ** 2 * dist[0] + 1e-12])
    return out


@st.composite
def closure_case(draw):
    """Random float inputs, or small integer vectors with duplicate
    centroids, where distance ties are the rule."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n, m, dim = draw(st.integers(1, 40)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        vecs = rng.integers(0, 3, (n, dim)).astype(np.float64)
        cents = rng.integers(0, 3, (m, dim)).astype(np.float64)
        cents[rng.integers(0, m, m // 2)] = cents[0]
    else:
        vecs, cents = rng.normal(0, 1, (n, dim)), rng.normal(0, 1, (m, dim))
    return vecs, cents, draw(st.integers(1, 6)), draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))


def closure_one_shot(
    vecs: np.ndarray, centroids: np.ndarray, *, max_replicas: int = 4, eps: float = 0.1
) -> tuple[np.ndarray, np.ndarray]:
    """Closure assignment before it was blocked, kept as the reference: the
    distances of every row to every centroid in one matrix."""
    d = pairwise_sq_l2(vecs, centroids)
    if not d.size:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rows, cols = np.nonzero(d <= (1.0 + eps) ** 2 * d.min(axis=1, keepdims=True) + 1e-12)
    order = np.lexsort((d[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    keep = np.arange(len(rows)) - np.searchsorted(rows, rows) < max_replicas
    return rows[keep], cols[keep]


def check_closure_case(case) -> None:
    vecs, cents, max_replicas, eps = case
    rows, cols = closure_assign(vecs, cents, max_replicas=max_replicas, eps=eps)
    expect = closure_loop(pairwise_sq_l2(vecs, cents), max_replicas, eps)
    np.testing.assert_array_equal(rows, np.repeat(np.arange(len(vecs)), [len(e) for e in expect]))
    np.testing.assert_array_equal(cols, np.concatenate(expect))


class TestClosureAssign:
    @given(closure_case())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_row_loop(self, case):
        check_closure_case(case)

    @pytest.mark.parametrize("block_rows", [1, 3])
    @given(case=closure_case())
    @settings(max_examples=150, deadline=None)
    def test_blocks_of_rows_match_per_row_loop(self, block_rows, case):
        """Distances formed a few rows at a time give every row the same
        closure, ties included: the integer, duplicate-centroid cases span
        several blocks."""
        with mock.patch.object(lire, "_CLOSURE_BLOCK", block_rows * len(case[1])):
            check_closure_case(case)

    def test_build_scale_matches_one_shot_reference(self):
        """Both of a build's closure passes (the second over 388 leaves,
        so 12 blocks of rows) equal the one-matrix form bit for bit. The
        blocked GEMM may round an entry one ulp apart from the one-matrix
        GEMM, so the reference is that form, not the same call."""
        vecs = clustered_vectors(n=8000, dim=32, seed=0).astype(np.float32)
        calls = []

        def record(v, c, **kw):
            calls.append((v, c, kw))
            return closure_assign(v, c, **kw)

        with mock.patch.object(lire, "closure_assign", record):
            build_layout(vecs, default_config(32))
        assert [len(c) for _, c, _ in calls] == [206, 388]
        assert 8000 > lire._CLOSURE_BLOCK // 388 > 0
        for v, c, kw in calls:
            got, want = closure_assign(v, c, **kw), closure_one_shot(v, c, **kw)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("n, m", [(0, 5), (7, 0), (0, 0)])
    def test_no_rows_or_no_centroids_give_empty_arrays(self, n, m):
        rng = np.random.default_rng(0)
        rows, cols = closure_assign(rng.normal(size=(n, 3)), rng.normal(size=(m, 3)))
        for a in (rows, cols):
            assert a.dtype == np.int64 and a.shape == (0,)


def line_index(*xs: float) -> CentroidIndex:
    """Centroids on the x axis of a 2-D space; pid i sits at ``xs[i]``."""
    index = CentroidIndex(2)
    for x in xs:
        index.add(np.array([x, 0.0]))
    return index


def plan(index, version_map, vids, versions, xs, cur_pids):
    vecs = np.array([[x, 0.0] for x in xs])
    cfg = SPFreshConfig(dim=2, closure_eps=0.0)
    return plan_moves(np.array(vids), np.array(versions), vecs, np.array(cur_pids),
                      index, version_map, cfg)


def version_map_of(*vids: int) -> VersionMap:
    vm = VersionMap()
    for v in vids:
        vm.add(v)
    return vm


class TestPlanMoves:
    def test_lost_cas_appends_nothing_and_keeps_replicas_live(self):
        index, vm = line_index(0.0, 10.0), version_map_of(1, 2)
        vm.bump_cas_many([2], [0])  # vector 2 moved after its candidate row was read
        p = plan(index, vm, [1, 2], [0, 0], [9.0, 9.0], [0, 0])
        assert (p.moved, p.aborted, p.evaluated) == (1, 1, 2)
        assert p.vids.tolist() == [1] and p.pids.tolist() == [1]
        assert p.versions.tolist() == [1]
        assert vm.version(2) == 1
        assert not vm.is_stale(np.array([2]), np.array([1]))[0]

    def test_vector_in_several_postings_is_decided_once(self):
        index, vm = line_index(0.0, 10.0, 20.0), version_map_of(3, 4)
        # vector 3 is a candidate in postings 0 and 1 and 1 is its nearest:
        # it stays. Vector 4 is a candidate in 0 and 2 but 1 is nearest: it
        # moves once, one version up.
        p = plan(index, vm, [3, 4, 3, 4], [0, 0, 0, 0], [9.0, 11.0, 9.0, 11.0], [0, 0, 1, 2])
        assert (p.moved, p.aborted, p.evaluated) == (1, 0, 2)
        assert p.vids.tolist() == [4] and p.pids.tolist() == [1]
        assert (vm.version(3), vm.version(4)) == (0, 1)

    def test_plan_ignores_candidate_order(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, 30, 40)
        cur = rng.integers(0, 4, 40)
        vids = np.arange(40) % 25  # some vectors are candidates twice
        a = plan(line_index(0, 10, 20, 30), version_map_of(*range(25)),
                 vids, np.zeros(40), xs[vids], cur)
        perm = rng.permutation(40)
        b = plan(line_index(0, 10, 20, 30), version_map_of(*range(25)),
                 vids[perm], np.zeros(40), xs[vids][perm], cur[perm])
        assert (a.moved, a.aborted, a.evaluated) == (b.moved, b.aborted, b.evaluated)
        for f in ("pids", "vids", "versions", "vecs"):
            np.testing.assert_array_equal(getattr(a, f), getattr(b, f))


class TestSplit:
    def test_same_rows_split_the_same_in_any_order(self):
        rng = np.random.default_rng(1)
        vids, vecs = rng.permutation(1000)[:60], rng.normal(0, 1, (60, 4))
        cfg = SPFreshConfig(dim=4)
        order, centers, labels = split(vids, vecs, cfg)
        perm = rng.permutation(60)
        order2, centers2, labels2 = split(vids[perm], vecs[perm], cfg)
        np.testing.assert_array_equal(centers, centers2)
        np.testing.assert_array_equal(vids[order], vids[perm][order2])
        np.testing.assert_array_equal(labels, labels2)


class TestBuildLayout:
    def test_every_centroid_used_and_closures_kept(self):
        """Dropping the centroids no vector's closure holds changes no
        closure: the layout is the closure assignment onto what is kept.
        This data's clustering gives 2 of its 174 centroids no vector."""
        vecs = clustered_vectors(n=2000, dim=16, n_clusters=16, seed=0)
        cfg = SPFreshConfig(dim=16, split_limit=48, merge_limit=4, reassign_range=4)
        centroids, rows, cols = build_layout(vecs, cfg)
        assert len(centroids) == 172
        np.testing.assert_array_equal(np.unique(cols), np.arange(len(centroids)))
        want = closure_assign(vecs, centroids, max_replicas=cfg.max_replicas, eps=cfg.closure_eps)
        np.testing.assert_array_equal(rows, want[0])
        np.testing.assert_array_equal(cols, want[1])
