"""Tests for the LIRE planner (paper §3.3, §4.2).

The key property of the conditions: they are *necessary* — any vector
whose true nearest centroid actually changed relative to a nearby posting
must satisfy the applicable condition. We verify this with randomized
geometric scenarios (hypothesis) by constructing splits and checking that
no NPA violation escapes the condition filter. The planner's other
decisions (closure assignment, split, the final NPA check with CAS) are
checked against a per-row reference and on hand-built cases.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.centroid_index import CentroidIndex
from repro.core.clustering import balanced_two_means
from repro.core.distances import pairwise_sq_l2
from repro.core.lire import (
    closure_assign,
    condition_one,
    condition_two,
    plan_moves,
    reassign_candidate_mask,
    split,
)
from repro.core.spfresh import SPFreshConfig
from repro.core.version_map import VersionMap


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
        m1 = reassign_candidate_mask(yellow[None, :], a_old, new, in_split_posting=True)
        m2 = reassign_candidate_mask(green[None, :], a_old, new, in_split_posting=False)
        assert m1[0] and m2[0]

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
    """Per-row reference for closure assignment over a distance matrix."""
    k = min(max_replicas, d.shape[1])
    part = np.argpartition(d, k - 1, axis=1)[:, :k] if k < d.shape[1] else np.tile(
        np.arange(d.shape[1]), (len(d), 1)
    )
    out = []
    for i in range(len(d)):
        cand = part[i]
        dist = d[i, cand]
        order = np.lexsort((cand, dist))
        cand, dist = cand[order], dist[order]
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


class TestClosureAssign:
    @given(closure_case())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_row_loop(self, case):
        vecs, cents, max_replicas, eps = case
        rows, cols = closure_assign(vecs, cents, max_replicas=max_replicas, eps=eps)
        expect = closure_loop(pairwise_sq_l2(vecs, cents), max_replicas, eps)
        np.testing.assert_array_equal(rows, np.repeat(np.arange(len(vecs)), [len(e) for e in expect]))
        np.testing.assert_array_equal(cols, np.concatenate(expect))


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
        vm.bump_cas(2, 0)  # vector 2 moved after its candidate row was read
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
