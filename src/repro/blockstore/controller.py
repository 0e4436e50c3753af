"""Block Controller: the paper's user-space storage engine (§4.3).

Postings are stored as chains of fixed-size SSD blocks. The controller
keeps the paper's three in-memory structures: *Block Mapping* (posting id →
block offsets + length), *Free Block Pool*, and (implicitly, via the
simulated device's batch API) a concurrent I/O queue. The posting API is
the paper's: GET, ParallelGET, APPEND (read-modify-write of the last block
only), PUT (bulk write + atomic mapping swap, releasing old blocks), plus
DELETE. All writes are copy-on-write: a block is never updated in place,
so released blocks can be parked in a pre-release buffer between snapshots
for the §4.4 crash-recovery roll-back. Because an allocated block never
changes, the controller caches each block's squared vector norms from its
first read until its release.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.blockstore.ssd import SimulatedSSD
from repro.core.distances import sq_norms

# Paper: a block-mapping entry (length + block offsets) costs ~40 B.
MAPPING_ENTRY_BYTES = 40


@dataclass
class Posting:
    """In-memory image of one posting: parallel arrays of tuple fields.

    Matches the paper's on-disk tuple layout ``<vector id, version number,
    raw vector>``. ``vecs`` rows are the raw vectors (float32 here; the
    byte-vector storage footprint is modelled via ``entry_bytes``).
    """

    vids: np.ndarray  # int64 (n,)
    versions: np.ndarray  # int16 (n,)
    vecs: np.ndarray  # float32 (n, dim)

    def __len__(self) -> int:
        return len(self.vids)

    @staticmethod
    def empty(dim: int) -> "Posting":
        return Posting(
            np.empty(0, np.int64), np.empty(0, np.int16), np.empty((0, dim), np.float32)
        )

    @staticmethod
    def concat(parts: list["Posting"]) -> "Posting":
        """One posting of the non-empty parts, in order; a single such part
        is returned as it is, not copied."""
        parts = [p for p in parts if len(p.vids)]
        if not parts:
            raise ValueError("concat of empty parts needs a dim; use Posting.empty")
        if len(parts) == 1:
            return parts[0]
        return Posting(
            np.concatenate([p.vids for p in parts]),
            np.concatenate([p.versions for p in parts]),
            np.concatenate([p.vecs for p in parts]),
        )

    def slice(self, lo: int, hi: int) -> "Posting":
        return Posting(self.vids[lo:hi], self.versions[lo:hi], self.vecs[lo:hi])

    def take(self, idx: np.ndarray) -> "Posting":
        return Posting(self.vids[idx], self.versions[idx], self.vecs[idx])


@dataclass
class PostingBatch:
    """The rows of a batch of ParallelGETs, read-only: the distinct
    requested ``pids`` in first-seen order, each one's length (``lens``),
    their tuples concatenated in that order (``rows``) and each row's
    squared norm, the :func:`~repro.core.distances.sq_norms` of its vector
    as float64 (``norms``)."""

    pids: np.ndarray  # int64 (p,)
    lens: np.ndarray  # int64 (p,)
    rows: Posting  # (lens.sum(),)
    norms: np.ndarray  # float64 (lens.sum(),)

    def __post_init__(self) -> None:
        for a in (self.rows.vids, self.rows.versions, self.rows.vecs, self.norms):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.pids)


@dataclass
class _MapEntry:
    length: int  # number of tuples stored
    block_ids: list[int] = field(default_factory=list)


class BlockController:
    """Posting store over a :class:`SimulatedSSD` with I/O cost accounting.

    ``dim`` fixes the tuple size: 8 B vector id + 1 B version + ``dim`` B
    raw vector (the paper's datasets are byte vectors), from which the
    tuples-per-block capacity follows. Every public call returns the
    simulated device latency in µs so callers can assemble per-operation
    latency figures.
    """

    def __init__(self, ssd: SimulatedSSD, dim: int):
        self.ssd = ssd
        self.dim = dim
        self.entry_bytes = 8 + 1 + dim
        self.entries_per_block = max(1, ssd.block_bytes // self.entry_bytes)
        self._mapping: dict[int, _MapEntry] = {}
        self._next_block = 0
        self._free: list[int] = []
        # Blocks released since the last snapshot; rolled into the free
        # pool only after the *next* snapshot (§4.4 block-level CoW).
        self.pre_release: list[int] = []
        self.defer_release = False
        # block id → its rows' squared norms, filled by the first read of the
        # block and dropped at its release, so a reused id never serves them
        self._norms: dict[int, np.ndarray] = {}

    # -- free pool --------------------------------------------------------
    def _alloc(self, n: int) -> list[int]:
        out: list[int] = []
        while self._free and len(out) < n:
            out.append(self._free.pop())
        while len(out) < n:
            out.append(self._next_block)
            self._next_block += 1
        return out

    def _release(self, block_ids: list[int]) -> None:
        for b in block_ids:
            self._norms.pop(b, None)
        if self.defer_release:
            self.pre_release.extend(block_ids)
        else:
            self.ssd.discard(block_ids)
            self._free.extend(block_ids)

    def flush_pre_release(self) -> None:
        """Move pre-released blocks into the free pool (post-snapshot)."""
        self.ssd.discard(self.pre_release)
        self._free.extend(self.pre_release)
        self.pre_release = []

    # -- helpers ----------------------------------------------------------
    def _chunk(self, posting: Posting) -> list[Posting]:
        """Block payloads of a posting, read-only: a read of one block
        hands its payload to the caller without a copy."""
        epb = self.entries_per_block
        chunks = [posting.slice(i, i + epb) for i in range(0, len(posting), epb)]
        for c in chunks:
            for a in (c.vids, c.versions, c.vecs):
                a.flags.writeable = False
        return chunks

    def exists(self, pid: int) -> bool:
        return pid in self._mapping

    def length(self, pid: int) -> int:
        return self._mapping[pid].length

    @property
    def posting_ids(self) -> list[int]:
        return list(self._mapping)

    def memory_bytes(self) -> int:
        """Modelled DRAM of the block mapping (paper: ~40 B/posting)."""
        return MAPPING_ENTRY_BYTES * len(self._mapping) + 8 * len(self._free)

    # -- posting API (paper §4.3) ----------------------------------------
    def put(self, pid: int, posting: Posting) -> float:
        """PUT: bulk-write a whole posting, atomically swap the mapping."""
        chunks = self._chunk(posting) if len(posting) else []
        blocks = self._alloc(len(chunks))
        cost = self.ssd.write(dict(zip(blocks, chunks))) if blocks else 0.0
        old = self._mapping.get(pid)
        self._mapping[pid] = _MapEntry(len(posting), blocks)
        if old is not None:
            self._release(old.block_ids)
        return cost

    def get(self, pid: int) -> tuple[Posting, float]:
        """GET: read all blocks of a posting (one batched I/O). The result
        may share the stored blocks' read-only arrays. It fills no norm:
        its callers, the split and merge jobs, form no distance to it."""
        _, parts, _, (cost,) = self._read([[pid]])
        return Posting.concat(parts) if parts else Posting.empty(self.dim), cost

    def get_many(self, pids: list[int]) -> tuple[dict[int, Posting], float]:
        """ParallelGET: fetch several postings in one batched I/O, by pid,
        each a read-only view of the batch's rows."""
        batch, (cost,) = self.get_batch([pids])
        ends = np.cumsum(batch.lens).tolist()
        return {
            pid: batch.rows.slice(hi - n, hi)
            for pid, n, hi in zip(batch.pids.tolist(), batch.lens.tolist(), ends)
        }, cost

    def get_batch(self, requests: list[list[int]]) -> tuple[PostingBatch, list[float]]:
        """The ParallelGETs of a batch of requests, each a list of pids.

        Each request is charged as its own batched read of its postings'
        blocks, or nothing when they hold none. Returns the distinct
        postings as one :class:`PostingBatch` and each request's simulated
        µs. The batch's norms are the blocks' cached ones; the blocks read
        without them get theirs from one ``sq_norms`` call. A batch of one
        block shares its stored arrays, which are read-only.
        """
        lens, parts, blocks, costs = self._read(requests)
        missing = [i for i, b in enumerate(blocks) if b not in self._norms]
        if missing:
            fresh = sq_norms(np.concatenate([parts[i].vecs for i in missing]).astype(np.float64))
            ends = np.cumsum([len(parts[i]) for i in missing]).tolist()
            for i, lo, hi in zip(missing, [0] + ends, ends):
                self._norms[blocks[i]] = fresh[lo:hi].copy()  # not a view: it outlives its batch
        batch = PostingBatch(
            np.fromiter(lens, dtype=np.int64, count=len(lens)),
            np.fromiter(lens.values(), dtype=np.int64, count=len(lens)),
            Posting.concat(parts) if parts else Posting.empty(self.dim),
            np.concatenate([self._norms[b] for b in blocks]) if blocks else np.empty(0),
        )
        return batch, costs

    def _read(
        self, requests: list[list[int]]
    ) -> tuple[dict[int, int], list[Posting], list[int], list[float]]:
        """One batched device read per request that holds blocks. Returns
        the distinct pids' lengths in first-seen order, their block
        payloads and block ids in that order, and each request's µs."""
        lens: dict[int, int] = {}
        parts: list[Posting] = []
        blocks: list[int] = []
        costs: list[float] = []
        for pids in requests:
            entries = [self._mapping[pid] for pid in pids]
            ids = [b for e in entries for b in e.block_ids]
            payloads, cost = self.ssd.read(ids) if ids else ([], 0.0)
            costs.append(cost)
            at = 0
            for pid, e in zip(pids, entries):
                nb = len(e.block_ids)
                if pid not in lens:
                    lens[pid] = e.length
                    parts += payloads[at : at + nb]
                    blocks += e.block_ids
                at += nb
        return lens, parts, blocks, costs

    def append(self, pid: int, tail: Posting) -> float:
        """APPEND: RMW of the last block only, CoW, atomic mapping update.

        Reads the current last block iff it is partially filled, merges the
        new tuples, writes fresh blocks, then swaps the mapping entry and
        releases the replaced last block — the paper's low-amplification
        append path.
        """
        entry = self._mapping[pid]
        epb = self.entries_per_block
        cost = 0.0
        used_in_last = entry.length % epb
        merged = tail
        replaced: list[int] = []
        if entry.block_ids and used_in_last != 0:
            last_id = entry.block_ids[-1]
            payloads, c = self.ssd.read([last_id])
            cost += c
            merged = Posting.concat([payloads[0], tail])
            replaced = [last_id]
        chunks = self._chunk(merged)
        new_blocks = self._alloc(len(chunks))
        cost += self.ssd.write(dict(zip(new_blocks, chunks)))
        kept = entry.block_ids[:-1] if replaced else entry.block_ids
        self._mapping[pid] = _MapEntry(entry.length + len(tail), kept + new_blocks)
        self._release(replaced)
        return cost

    def delete(self, pid: int) -> float:
        """Drop a posting, releasing its blocks. No device I/O charged."""
        entry = self._mapping.pop(pid)
        self._release(entry.block_ids)
        return 0.0
