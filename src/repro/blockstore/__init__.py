"""Simulated raw-SSD storage substrate for SPFresh (paper §4.3).

The paper's Block Controller runs on SPDK against a real NVMe device; here
the device is :class:`repro.blockstore.ssd.SimulatedSSD`, which charges a
per-block latency under a bounded-parallelism channel model and counts
IOPS. :class:`repro.blockstore.controller.BlockController` reproduces the
paper's storage engine behaviour on top of it: in-memory block mapping,
free block pool, last-block read-modify-write APPEND, bulk PUT with
copy-on-write release, ParallelGET batching into one flat row batch, and
a cache of each allocated block's squared norms.
"""
from repro.blockstore.controller import BlockController, Posting, PostingBatch
from repro.blockstore.ssd import SimulatedSSD
from repro.blockstore.wal import RecoveryLog

__all__ = ["BlockController", "Posting", "PostingBatch", "SimulatedSSD", "RecoveryLog"]
