"""Tests for the 1-byte version map (paper §4.1/§4.2)."""
import numpy as np
import pytest

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

    def test_vectorised_mixed_batch(self):
        vm = VersionMap()
        for v in range(5):
            vm.add(v)
        vm.delete(2)
        vm.bump_cas(4, 0)
        stale = vm.is_stale(np.arange(5), np.zeros(5, dtype=np.int16))
        np.testing.assert_array_equal(stale, [False, False, True, False, True])
