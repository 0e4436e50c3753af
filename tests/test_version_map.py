"""Tests for the 1-byte version map (paper §4.1/§4.2)."""
import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.version_map import VersionMap


class TestLifecycle:
    def test_add_starts_at_version_zero(self):
        vm = VersionMap()
        assert vm.add(3) == 0
        assert vm.version(3) == 0 and not vm.is_deleted(3)

    def test_contains(self):
        vm = VersionMap()
        vm.add(5)
        assert vm.contains(5) and not vm.contains(6)

    def test_add_refuses_a_held_vid(self):
        vm = VersionMap()
        vm.add(1)
        vm.bump_cas(1, 0)
        vm.add(2)
        vm.delete(2)
        for vid in (1, 2):
            with pytest.raises(ValueError):
                vm.add(vid)
        assert vm.version(1) == 1 and vm.is_deleted(2)

    def test_add_many_equals_a_loop_of_add(self):
        one, many = VersionMap(capacity=4), VersionMap(capacity=4)
        vids = np.array([7, 2, 300, 0])
        for v in vids:
            one.add(int(v))
        many.add_many(vids)
        for got, want in zip(many.entries(), one.entries()):
            np.testing.assert_array_equal(got, want)
        assert many.memory_bytes() == one.memory_bytes() == 301

    @pytest.mark.parametrize("batch", [[4, 5, 1], [4, 5, 4], [4, 5, -1]])
    def test_add_many_refuses_the_whole_batch(self, batch):
        vm = VersionMap()
        vm.add(1)
        with pytest.raises(ValueError):
            vm.add_many(np.array(batch))
        assert not vm.contains(4) and not vm.contains(5)

    def test_negative_vid_is_neither_held_nor_added(self):
        """numpy reads vid -1 as the last slot, here vid 3's."""
        vm = VersionMap(capacity=4)
        vm.add(3)
        assert not vm.contains(-1)
        with pytest.raises(ValueError):
            vm.add(-1)
        with pytest.raises(ValueError):
            vm.check_new(np.array([-1]))

    def test_delete_sets_tombstone(self):
        vm = VersionMap()
        vm.add(1)
        vm.delete(1)
        assert vm.is_deleted(1)

    def test_growth_beyond_capacity(self):
        vm = VersionMap(capacity=2)
        vm.add(10_000)
        assert vm.contains(10_000)

    def test_memory_one_byte_per_vector(self):
        vm = VersionMap()
        vm.add(999)
        assert vm.memory_bytes() == 1000  # paper: 1 B per vector


class TestCAS:
    def test_bump_succeeds_on_expected(self):
        vm = VersionMap()
        vm.add(1)
        assert vm.bump_cas(1, 0) == 1
        assert vm.version(1) == 1

    def test_bump_fails_on_stale_expected(self):
        vm = VersionMap()
        vm.add(1)
        vm.bump_cas(1, 0)
        assert vm.bump_cas(1, 0) is None  # concurrent reassign lost the race

    def test_bump_fails_on_deleted(self):
        vm = VersionMap()
        vm.add(1)
        vm.delete(1)
        assert vm.bump_cas(1, 0) is None

    def test_seven_bit_wraparound(self):
        vm = VersionMap()
        vm.add(1)
        for expected in range(127):
            assert vm.bump_cas(1, expected) == expected + 1
        assert vm.bump_cas(1, 127) == 0  # wraps to 0, not 128
        assert not vm.is_deleted(1)  # wrap must not touch the delete bit


@st.composite
def cas_batch(draw):
    """A version map with vids at versions near the 7-bit wrap, some
    deleted, and a CAS per distinct vid that expects the current version
    or a stale one."""
    vm = VersionMap(capacity=8)
    n = draw(st.integers(0, 30))
    vids = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True))
    expected = []
    for v in vids:
        vm.add(v)
        version = draw(st.sampled_from([0, 1, 2, 125, 126, 127]))
        for e in range(version):
            vm.bump_cas(v, e)
        if draw(st.booleans()):
            vm.delete(v)
        expected.append(draw(st.sampled_from([version, (version + 1) % 128, 0])))
    return vm, np.array(vids, dtype=np.int64), np.array(expected, dtype=np.int16)


class TestBumpCasMany:
    @given(cas_batch())
    @settings(max_examples=150, deadline=None)
    def test_equals_a_loop_of_bump_cas(self, case):
        vm, vids, expected = case
        loop = copy.deepcopy(vm)
        want = [loop.bump_cas(int(v), int(e)) for v, e in zip(vids, expected)]
        ok, new = vm.bump_cas_many(vids, expected)
        assert ok.tolist() == [w is not None for w in want]
        assert new[ok].tolist() == [w for w in want if w is not None]
        for got, ref in zip(vm.entries(), loop.entries()):
            np.testing.assert_array_equal(got, ref)


class TestStaleness:
    def test_fresh_replica_is_live(self):
        vm = VersionMap()
        vm.add(1)
        assert not vm.is_stale(np.array([1]), np.array([0]))[0]

    def test_version_mismatch_is_stale(self):
        vm = VersionMap()
        vm.add(1)
        vm.bump_cas(1, 0)
        stale = vm.is_stale(np.array([1, 1]), np.array([0, 1]))
        assert stale[0] and not stale[1]

    def test_deleted_is_stale_at_any_version(self):
        vm = VersionMap()
        vm.add(1)
        vm.bump_cas(1, 0)
        vm.delete(1)
        assert vm.is_stale(np.array([1]), np.array([1]))[0]

    def test_unknown_vid_is_stale(self):
        vm = VersionMap()
        vm.add(0)
        assert vm.is_stale(np.array([3]), np.array([0]))[0]

    def test_vid_past_capacity_is_stale(self):
        """A row of a vid the map never registered, past its capacity, is
        stale like any unregistered one; the rows beside it keep theirs."""
        vm = VersionMap(capacity=4)
        vm.add(1)
        vm.delete(1)
        vm.add(2)
        stale = vm.is_stale(np.array([2, 5000, 1, 3]), np.zeros(4, dtype=np.int16))
        np.testing.assert_array_equal(stale, [False, True, True, True])

    def test_vectorised_mixed_batch(self):
        vm = VersionMap()
        for v in range(5):
            vm.add(v)
        vm.delete(2)
        vm.bump_cas(4, 0)
        stale = vm.is_stale(np.arange(5), np.zeros(5, dtype=np.int16))
        np.testing.assert_array_equal(stale, [False, False, True, False, True])
