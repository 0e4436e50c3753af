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
        """Register a fresh vector at version 0; returns the version."""
        self._ensure(vid)
        self._v[vid] = 0
        self._present[vid] = True
        self._max_vid = max(self._max_vid, vid)
        return 0

    def delete(self, vid: int) -> None:
        """Tombstone: set the deletion bit (replicas become stale)."""
        self._v[vid] |= _DELETE_BIT

    # -- queries ----------------------------------------------------------
    def contains(self, vid: int) -> bool:
        return vid < len(self._present) and bool(self._present[vid])

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
        """Vectorised staleness test for a posting's on-disk tuples."""
        vids = np.asarray(vids, dtype=np.int64)
        cur = self._v[vids]
        deleted = (cur & _DELETE_BIT) != 0
        moved = (cur & _VERSION_MASK) != (np.asarray(disk_versions) & _VERSION_MASK)
        return deleted | moved | ~self._present[vids]

    # -- CAS (paper: atomic version bump guards concurrent reassign) ------
    def bump_cas(self, vid: int, expected_version: int) -> int | None:
        """Atomically advance the version iff it still equals ``expected``.

        Returns the new version, or ``None`` if the CAS failed (vector was
        reassigned or deleted concurrently) — the caller must abort its
        reassign, exactly as in §4.2.2.
        """
        cur = int(self._v[vid])
        if cur & _DELETE_BIT or (cur & _VERSION_MASK) != expected_version:
            return None
        new = (cur + 1) & _VERSION_MASK  # 7-bit wrap-around
        self._v[vid] = (cur & _DELETE_BIT) | new
        return new

    def memory_bytes(self) -> int:
        """Paper: one byte per vector ever seen."""
        return self._max_vid + 1
