"""Unit tests for the simulated SSD and the Block Controller (paper §4.3)."""
import numpy as np
import pytest

from repro.blockstore import BlockController, Posting, SimulatedSSD


def make_posting(n: int, dim: int = 8, vid0: int = 0, version: int = 0) -> Posting:
    return Posting(
        np.arange(vid0, vid0 + n, dtype=np.int64),
        np.full(n, version, dtype=np.int16),
        np.arange(n * dim, dtype=np.float32).reshape(n, dim),
    )


@pytest.fixture()
def ctl() -> BlockController:
    return BlockController(SimulatedSSD(block_bytes=4096), dim=8)


class TestSSDCostModel:
    def test_single_read_costs_one_latency(self):
        ssd = SimulatedSSD(read_latency_us=90.0, channels=8)
        assert ssd.read_cost_us(1) == 90.0

    @pytest.mark.parametrize("n,expected_batches", [(1, 1), (8, 1), (9, 2), (16, 2), (17, 3)])
    def test_batched_reads_amortize_over_channels(self, n, expected_batches):
        ssd = SimulatedSSD(read_latency_us=90.0, channels=8)
        assert ssd.read_cost_us(n) == expected_batches * 90.0

    def test_zero_blocks_is_free(self):
        ssd = SimulatedSSD()
        assert ssd.read_cost_us(0) == 0.0
        assert ssd.write_cost_us(0) == 0.0

    def test_counters_accumulate(self):
        ssd = SimulatedSSD()
        ssd.write({0: "a", 1: "b"})
        ssd.read([0, 1])
        assert ssd.counters.blocks_written == 2
        assert ssd.counters.blocks_read == 2
        assert ssd.counters.read_batches == 1
        assert ssd.counters.busy_us > 0

    def test_counters_delta(self):
        ssd = SimulatedSSD()
        ssd.write({0: "a"})
        snap = ssd.counters.snapshot()
        ssd.read([0])
        d = ssd.counters.delta(snap)
        assert d.blocks_read == 1 and d.blocks_written == 0


class TestBlockMapping:
    def test_entries_per_block_from_tuple_size(self, ctl):
        # tuple = 8 (vid) + 1 (version) + 8 (byte vector) = 17 B → 241/block
        assert ctl.entry_bytes == 17
        assert ctl.entries_per_block == 4096 // 17

    @pytest.mark.parametrize("dim", [8, 32, 100, 128])
    def test_entry_bytes_matches_paper_layout(self, dim):
        c = BlockController(SimulatedSSD(), dim=dim)
        assert c.entry_bytes == 8 + 1 + dim

    def test_put_get_roundtrip(self, ctl):
        p = make_posting(10)
        ctl.put(1, p)
        got, _ = ctl.get(1)
        np.testing.assert_array_equal(got.vids, p.vids)
        np.testing.assert_array_equal(got.versions, p.versions)
        np.testing.assert_array_equal(got.vecs, p.vecs)

    def test_put_empty_posting(self, ctl):
        ctl.put(1, Posting.empty(8))
        got, cost = ctl.get(1)
        assert len(got) == 0 and cost == 0.0

    def test_length_tracks_tuples(self, ctl):
        ctl.put(1, make_posting(5))
        assert ctl.length(1) == 5
        ctl.append(1, make_posting(3, vid0=5))
        assert ctl.length(1) == 8

    def test_multi_block_posting(self):
        ctl = BlockController(SimulatedSSD(block_bytes=64), dim=8)  # 3 tuples/block
        assert ctl.entries_per_block == 3
        ctl.put(1, make_posting(10))
        assert ctl.n_blocks(1) == 4
        got, _ = ctl.get(1)
        np.testing.assert_array_equal(got.vids, np.arange(10))

    def test_memory_model_counts_postings(self, ctl):
        for pid in range(5):
            ctl.put(pid, make_posting(3))
        assert ctl.memory_bytes() >= 5 * 40

    def test_delete_releases_blocks(self, ctl):
        ctl.put(1, make_posting(5))
        in_use = ctl.ssd.blocks_in_use
        ctl.delete(1)
        assert not ctl.exists(1)
        assert ctl.ssd.blocks_in_use < in_use

    def test_deleted_blocks_are_reused(self, ctl):
        ctl.put(1, make_posting(5))
        ctl.delete(1)
        hw = ctl._next_block
        ctl.put(2, make_posting(5))
        assert ctl._next_block == hw  # allocation served from the free pool


class TestAppend:
    """APPEND must be a last-block RMW, not a posting rewrite (paper §4.3)."""

    def test_append_only_touches_last_block(self):
        ctl = BlockController(SimulatedSSD(block_bytes=64), dim=8)  # 3 tuples/block
        ctl.put(1, make_posting(7))  # 3 blocks, last holds 1 tuple
        snap = ctl.ssd.counters.snapshot()
        ctl.append(1, make_posting(1, vid0=7))
        d = ctl.ssd.counters.delta(snap)
        assert d.blocks_read == 1  # only the partial last block
        assert d.blocks_written == 1

    def test_append_to_full_last_block_reads_nothing(self):
        ctl = BlockController(SimulatedSSD(block_bytes=64), dim=8)
        ctl.put(1, make_posting(6))  # exactly 2 full blocks
        snap = ctl.ssd.counters.snapshot()
        ctl.append(1, make_posting(2, vid0=6))
        d = ctl.ssd.counters.delta(snap)
        assert d.blocks_read == 0
        assert d.blocks_written == 1

    def test_append_preserves_order(self, ctl):
        ctl.put(1, make_posting(4))
        ctl.append(1, make_posting(4, vid0=4, version=2))
        got, _ = ctl.get(1)
        np.testing.assert_array_equal(got.vids, np.arange(8))
        np.testing.assert_array_equal(got.versions, [0, 0, 0, 0, 2, 2, 2, 2])

    def test_append_is_copy_on_write(self):
        ctl = BlockController(SimulatedSSD(block_bytes=64), dim=8)
        ctl.put(1, make_posting(1))
        old_block = ctl._mapping[1].block_ids[-1]
        ctl.append(1, make_posting(1, vid0=1))
        assert ctl._mapping[1].block_ids[-1] != old_block

    def test_append_to_empty_posting(self, ctl):
        ctl.put(1, Posting.empty(8))
        ctl.append(1, make_posting(3))
        assert ctl.length(1) == 3


class TestParallelGet:
    def test_parallel_get_batches_io(self):
        ctl = BlockController(SimulatedSSD(block_bytes=64, channels=8), dim=8)
        for pid in range(4):
            ctl.put(pid, make_posting(6, vid0=pid * 10))  # 2 blocks each
        snap = ctl.ssd.counters.snapshot()
        postings, cost = ctl.get_many(list(range(4)))
        d = ctl.ssd.counters.delta(snap)
        assert d.read_batches == 1  # one ParallelGET
        assert d.blocks_read == 8
        assert cost == ctl.ssd.read_cost_us(8)
        for pid in range(4):
            np.testing.assert_array_equal(postings[pid].vids, np.arange(pid * 10, pid * 10 + 6))

    def test_parallel_get_cheaper_than_serial_gets(self):
        ctl = BlockController(SimulatedSSD(block_bytes=64, channels=8), dim=8)
        for pid in range(8):
            ctl.put(pid, make_posting(3, vid0=pid * 10))
        _, par = ctl.get_many(list(range(8)))
        serial = sum(ctl.get(pid)[1] for pid in range(8))
        assert par < serial

    def test_parallel_get_empty_list(self, ctl):
        postings, cost = ctl.get_many([])
        assert postings == {} and cost == 0.0


class TestBatchGet:
    """``get_batch`` is one ``get_many`` per request, with each distinct
    posting assembled once."""

    @staticmethod
    def store() -> BlockController:
        ctl = BlockController(SimulatedSSD(block_bytes=64, channels=2), dim=8)
        for pid, n in enumerate([6, 3, 0, 9, 1]):  # 2, 1, 0, 3 and 1 blocks
            ctl.put(pid, make_posting(n, vid0=pid * 10))
        return ctl

    REQUESTS = [[0, 1], [2], [3, 0, 4], [], [1, 2, 3], [4]]

    def test_matches_one_get_many_per_request(self):
        batch, serial = self.store(), self.store()
        postings, costs = batch.get_batch(self.REQUESTS)
        for pids, cost in zip(self.REQUESTS, costs):
            want, want_cost = serial.get_many(pids)
            assert cost == want_cost
            for pid in pids:
                np.testing.assert_array_equal(postings[pid].vids, want[pid].vids)
                np.testing.assert_array_equal(postings[pid].versions, want[pid].versions)
                np.testing.assert_array_equal(postings[pid].vecs, want[pid].vecs)
        assert batch.ssd.counters == serial.ssd.counters
        # the two requests without blocks are neither charged nor counted
        assert costs[1] == costs[3] == 0.0
        assert batch.ssd.counters.read_batches == len(self.REQUESTS) - 2

    def test_postings_in_first_seen_order(self):
        postings, _ = self.store().get_batch(self.REQUESTS)
        assert list(postings) == [0, 1, 2, 3, 4]

    def test_shared_posting_assembled_once(self, monkeypatch):
        ctl = self.store()
        assembled = []
        concat = Posting.concat
        monkeypatch.setattr(
            Posting, "concat", staticmethod(lambda parts: assembled.append(parts) or concat(parts))
        )
        postings, _ = ctl.get_batch([[0, 3], [3, 0], [0]])
        # the two multi-block postings, once each; one-block postings need no concat
        assert len(assembled) == 2
        assert len(postings[0]) == 6 and len(postings[3]) == 9

    def test_one_block_posting_is_not_copied(self):
        ctl = self.store()
        postings, _ = ctl.get_batch([[1], [1, 4]])
        assert not postings[1].vecs.flags.writeable
        assert not postings[4].vids.flags.writeable


class TestReadOnlyBlocks:
    """GET hands out a one-block posting's stored payload without copying
    it, so a write into the result must fail instead of changing the disk."""

    @pytest.mark.parametrize("field", ["vids", "versions", "vecs"])
    def test_write_into_get_raises(self, ctl, field):
        ctl.put(1, make_posting(5))
        p, _ = ctl.get(1)
        with pytest.raises(ValueError):
            getattr(p, field)[0] = 7
        np.testing.assert_array_equal(ctl.get(1)[0].vids, np.arange(5))

    def test_write_into_get_many_raises(self, ctl):
        ctl.put(1, make_posting(5))
        ctl.append(1, make_posting(2, vid0=5))
        postings, _ = ctl.get_many([1])
        with pytest.raises(ValueError):
            postings[1].vecs[0, 0] = -1.0
        assert ctl.get(1)[0].vecs[0, 0] == 0.0

    def test_callers_arrays_stay_writable(self, ctl):
        p = make_posting(5)
        ctl.put(1, p)
        assert p.vids.flags.writeable and p.vecs.flags.writeable


class TestPreRelease:
    """§4.4: blocks freed between snapshots must not be reused until the
    next snapshot lands (block-level CoW roll-back window)."""

    def test_deferred_release_parks_blocks(self, ctl):
        ctl.defer_release = True
        ctl.put(1, make_posting(5))
        ctl.delete(1)
        assert ctl.pre_release and not ctl._free

    def test_flush_moves_to_free_pool(self, ctl):
        ctl.defer_release = True
        ctl.put(1, make_posting(5))
        blocks = list(ctl._mapping[1].block_ids)
        ctl.delete(1)
        ctl.flush_pre_release()
        assert ctl.pre_release == []
        assert set(blocks) <= set(ctl._free)

    def test_parked_blocks_not_reallocated(self, ctl):
        ctl.defer_release = True
        ctl.put(1, make_posting(5))
        parked = set(ctl._mapping[1].block_ids)
        ctl.delete(1)
        ctl.put(2, make_posting(5))
        assert parked.isdisjoint(set(ctl._mapping[2].block_ids))


class TestPosting:
    def test_concat_and_slice(self):
        a, b = make_posting(3), make_posting(2, vid0=3)
        c = Posting.concat([a, b])
        assert len(c) == 5
        np.testing.assert_array_equal(c.slice(1, 4).vids, [1, 2, 3])

    def test_concat_of_one_part_is_that_part(self):
        p = make_posting(3)
        assert Posting.concat([p]) is p
        assert Posting.concat([Posting.empty(8), p, Posting.empty(8)]) is p

    def test_take(self):
        p = make_posting(5)
        sel = p.take(np.array([0, 2, 4]))
        np.testing.assert_array_equal(sel.vids, [0, 2, 4])

    def test_empty(self):
        p = Posting.empty(8)
        assert len(p) == 0 and p.vecs.shape == (0, 8)
