"""Global in-memory version map (paper §4.1, §4.2.1, §4.2.2).

One byte per vector: seven bits of reassign version + one deletion bit.
A replica stored on disk with version ``v`` is *stale* iff the in-memory
byte differs (version bumped by a reassign, or tombstoned). Reassigns
bump the version with compare-and-swap semantics so two concurrent
reassign jobs cannot both move the same vector; the single-threaded
simulator keeps the CAS contract so the protocol logic (and its tests)
match the paper.
"""
from __future__ import annotations

import numpy as np

_DELETE_BIT = 0x80
_VERSION_MASK = 0x7F


class VersionMap:
    """Dense ``vid → version byte`` map backed by a numpy uint8 array."""

    def __init__(self, capacity: int = 1024):
        self._v = np.zeros(capacity, dtype=np.uint8)
        self._present = np.zeros(capacity, dtype=bool)
        self._max_vid = -1

    def _ensure(self, vid: int) -> None:
        while vid >= len(self._v):
            self._v = np.concatenate([self._v, np.zeros(len(self._v), dtype=np.uint8)])
            self._present = np.concatenate(
                [self._present, np.zeros(len(self._present), dtype=bool)]
            )

    # -- lifecycle --------------------------------------------------------
    def add(self, vid: int) -> int:
        """Register a fresh vector at version 0 (a batch of one); returns 0.

        A vid is registered once: re-registering it, deleted or not, would
        reset its version to 0 and make its old replicas, which hold the old
        vector at that version, live again. Raises ``ValueError`` instead.
        """
        self.add_many(np.array([vid], dtype=np.int64))
        return 0

    def check_new(self, vids: np.ndarray) -> None:
        """Refuse a batch before any of it is registered: raises
        ``ValueError`` when a vid is negative (numpy would read it as a slot
        counted from the end), registered already or occurs twice."""
        uniq, n = np.unique(np.asarray(vids, dtype=np.int64), return_counts=True)
        held = (0 <= uniq) & (uniq < len(self._present))
        held[held] = self._present[uniq[held]]
        bad = uniq[(n > 1) | held | (uniq < 0)]
        if len(bad):
            raise ValueError(
                f"vids negative, registered already or repeated in the batch: {bad[:10].tolist()}"
            )

    def add_many(self, vids: np.ndarray) -> None:
        """Register a batch of fresh vectors at version 0, all or none: a
        batch that :meth:`check_new` refuses registers nothing."""
        vids = np.asarray(vids, dtype=np.int64)
        self.check_new(vids)
        if not len(vids):
            return
        top = int(vids.max())
        self._ensure(top)
        self._v[vids] = 0
        self._present[vids] = True
        self._max_vid = max(self._max_vid, top)

    def delete(self, vid: int) -> None:
        """Tombstone: set the deletion bit (replicas become stale)."""
        self._v[vid] |= _DELETE_BIT

    # -- queries ----------------------------------------------------------
    def contains(self, vid: int) -> bool:
        return 0 <= vid < len(self._present) and bool(self._present[vid])

    def is_deleted(self, vid: int) -> bool:
        return bool(self._v[vid] & _DELETE_BIT)

    def version(self, vid: int) -> int:
        return int(self._v[vid] & _VERSION_MASK)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(vids, versions, deleted)`` of every registered vector, by vid."""
        vids = np.flatnonzero(self._present)
        cur = self._v[vids]
        return vids, cur & _VERSION_MASK, (cur & _DELETE_BIT) != 0

    def is_stale(self, vids: np.ndarray, disk_versions: np.ndarray) -> np.ndarray:
        """Vectorised staleness test for a posting's on-disk tuples. A tuple
        of a vid the map never registered, past its capacity too, is stale:
        a crash can lose an insert's registration but not its rows."""
        vids = np.asarray(vids, dtype=np.int64)
        try:
            cur = self._v[vids]
        except IndexError:  # a vid past the capacity; registered ones pay no check
            stale = vids >= len(self._v)
            stale[~stale] = self.is_stale(vids[~stale], np.asarray(disk_versions)[~stale])
            return stale
        deleted = (cur & _DELETE_BIT) != 0
        moved = (cur & _VERSION_MASK) != (np.asarray(disk_versions) & _VERSION_MASK)
        return deleted | moved | ~self._present[vids]

    # -- CAS (paper: atomic version bump guards concurrent reassign) ------
    def bump_cas_many(self, vids: np.ndarray, expected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Atomically advance the version of each of the *distinct* ``vids``
        iff it still equals its ``expected`` version. Returns ``(ok, new)``:
        whether each CAS won, and its new version (0 where it lost). A CAS
        fails if the vector was reassigned or deleted concurrently, and the
        caller must abort that reassign, exactly as in §4.2.2."""
        vids = np.asarray(vids, dtype=np.int64)
        cur = self._v[vids]
        ok = ((cur & _DELETE_BIT) == 0) & ((cur & _VERSION_MASK) == np.asarray(expected))
        new = np.where(ok, (cur.astype(np.int64) + 1) & _VERSION_MASK, 0)  # 7-bit wrap-around
        self._v[vids[ok]] = new[ok]  # the deletion bit of a won CAS is clear
        return ok, new

    def memory_bytes(self) -> int:
        """Paper: one byte per vector ever seen."""
        return self._max_vid + 1
