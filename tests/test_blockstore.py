"""Unit tests for the simulated SSD and the Block Controller (paper §4.3)."""
import numpy as np
import pytest

from repro.blockstore import BlockController, Posting, SimulatedSSD
from repro.core.distances import sq_norms


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
        before = ctl.ssd.counters.snapshot()
        ctl.put(1, make_posting(10))
        assert ctl.ssd.counters.delta(before).blocks_written == 4
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
    """``get_batch`` is one ``get_many`` per request, with the distinct
    postings' rows in one flat, read-only batch."""

    @staticmethod
    def store() -> BlockController:
        ctl = BlockController(SimulatedSSD(block_bytes=64, channels=2), dim=8)
        for pid, n in enumerate([6, 3, 0, 9, 1]):  # 2, 1, 0, 3 and 1 blocks
            ctl.put(pid, make_posting(n, vid0=pid * 10))
        return ctl

    REQUESTS = [[0, 1], [2], [3, 0, 4], [], [1, 2, 3], [4]]

    def test_matches_one_get_many_per_request(self):
        batch, serial = self.store(), self.store()
        _, costs = batch.get_batch(self.REQUESTS)
        for pids, cost in zip(self.REQUESTS, costs):
            assert cost == serial.get_many(pids)[1]
        assert batch.ssd.counters == serial.ssd.counters
        # the two requests without blocks are neither charged nor counted
        assert costs[1] == costs[3] == 0.0
        assert batch.ssd.counters.read_batches == len(self.REQUESTS) - 2

    def test_equals_serial_gets_in_first_seen_order(self):
        got, _ = self.store().get_batch(self.REQUESTS)
        serial = self.store()
        want = [serial.get(pid)[0] for pid in range(5)]
        np.testing.assert_array_equal(got.lens, [len(p) for p in want])
        for field in ("vids", "versions", "vecs"):
            np.testing.assert_array_equal(
                getattr(got.rows, field), np.concatenate([getattr(p, field) for p in want])
            )
        assert got.rows.vecs.dtype == np.float32 and got.norms.dtype == np.float64
        np.testing.assert_array_equal(got.norms, sq_norms(got.rows.vecs.astype(np.float64)))

    def test_postings_in_first_seen_order(self):
        batch, _ = self.store().get_batch(self.REQUESTS)
        assert batch.pids.tolist() == [0, 1, 2, 3, 4]
        assert batch.lens.tolist() == [6, 3, 0, 9, 1]
        assert len(batch.rows) == len(batch.norms) == 19

    def test_posting_requested_twice_appears_once(self):
        ctl = self.store()
        batch, costs = ctl.get_batch([[0, 3], [3, 0], [0]])
        assert batch.pids.tolist() == [0, 3] and batch.lens.tolist() == [6, 9]
        np.testing.assert_array_equal(batch.rows.vids, [*range(6), *range(30, 39)])
        # each request is still charged and counted as its own read
        assert ctl.ssd.counters.blocks_read == 5 + 5 + 2 and len(costs) == 3

    @pytest.mark.parametrize("requests", [[[1], [1, 4]], [[0, 3]], [[4, 1], [0]], [[2]], []])
    def test_batch_arrays_are_read_only(self, requests):
        batch, _ = self.store().get_batch(requests)
        for a in (batch.rows.vids, batch.rows.versions, batch.rows.vecs, batch.norms):
            assert not a.flags.writeable

    def test_one_block_posting_is_not_copied(self):
        ctl = self.store()
        batch, _ = ctl.get_batch([[1], [1]])
        stored = ctl.ssd._blocks[ctl._mapping[1].block_ids[0]]
        assert batch.rows.vecs is stored.vecs and batch.rows.vids is stored.vids
        assert not batch.rows.vecs.flags.writeable


class TestNormCache:
    """The controller keeps each block's squared norms from its first read
    until its release: they must equal ``sq_norms`` of the block's rows as
    float64, bit for bit, whatever the block ids' history."""

    @staticmethod
    def posting(n: int, vid0: int, seed: int) -> Posting:
        vecs = np.random.default_rng(seed).normal(size=(n, 8)).astype(np.float32)
        return Posting(np.arange(vid0, vid0 + n), np.zeros(n, np.int16), vecs)

    @staticmethod
    def check(ctl: BlockController) -> None:
        """Every posting read in one batch, and every cached block's norms,
        against ``sq_norms`` of the gathered float64 rows."""
        batch, _ = ctl.get_batch([ctl.posting_ids])
        np.testing.assert_array_equal(batch.norms, sq_norms(batch.rows.vecs.astype(np.float64)))
        held = {b for pid in ctl.posting_ids for b in ctl._mapping[pid].block_ids}
        assert set(ctl._norms) == held
        for b, norms in ctl._norms.items():
            want = sq_norms(ctl.ssd._blocks[b].vecs.astype(np.float64))
            assert norms.tobytes() == want.tobytes()

    @pytest.fixture()
    def ctl(self) -> BlockController:
        return BlockController(SimulatedSSD(block_bytes=64), dim=8)  # 3 tuples/block

    def test_after_put_and_append(self, ctl):
        ctl.put(1, self.posting(7, 0, seed=1))
        ctl.put(2, self.posting(2, 100, seed=2))
        self.check(ctl)
        ctl.append(1, self.posting(1, 7, seed=3))  # replaces the last block, not cached
        assert ctl._mapping[1].block_ids[-1] not in ctl._norms
        self.check(ctl)
        ctl.put(2, self.posting(4, 200, seed=4))
        self.check(ctl)

    def test_delete_drops_the_norms(self, ctl):
        ctl.put(1, self.posting(7, 0, seed=1))
        blocks = list(ctl._mapping[1].block_ids)
        ctl.get(1)  # GET's callers rewrite or release the blocks: it fills no norm
        assert not ctl._norms
        ctl.get_batch([[1]])
        assert set(blocks) <= set(ctl._norms)
        ctl.delete(1)
        assert set(blocks).isdisjoint(ctl._norms)

    def test_ids_reused_through_the_free_pool(self, ctl):
        ctl.put(1, self.posting(7, 0, seed=1))
        ctl.get_batch([[1]])
        freed = set(ctl._mapping[1].block_ids)
        ctl.delete(1)
        ctl.put(2, self.posting(7, 100, seed=2))  # other vectors in the same blocks
        assert set(ctl._mapping[2].block_ids) == freed
        self.check(ctl)

    def test_ids_reused_through_flush_pre_release(self, ctl):
        ctl.defer_release = True
        ctl.put(1, self.posting(5, 0, seed=1))
        ctl.get_batch([[1]])
        parked = set(ctl._mapping[1].block_ids)
        ctl.put(1, self.posting(4, 10, seed=2))  # the old blocks go to the pre-release buffer
        ctl.get_batch([[1]])
        self.check(ctl)
        ctl.flush_pre_release()
        ctl.put(2, self.posting(6, 100, seed=3))
        assert set(ctl._mapping[2].block_ids) == parked
        self.check(ctl)


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
