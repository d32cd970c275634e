"""Paging-device substrate.

Models the paper's paging disk at the level that matters for its
argument: *"latency of the disk arm movement is the largest component of
the time required to transfer data"* (§1).  A transfer of N pages costs
a seek + rotational latency for every discontiguous run of swap slots,
plus a per-page transfer time — so large contiguous block transfers are
dramatically cheaper per page than scattered single-page I/O, and
interleaved read/write bursts pay repeated seeks.

Public surface
--------------
:class:`DiskParams`    — geometry/latency parameters.
:class:`Disk`          — the device: queue with a FIFO, SSTF or C-SCAN
                         discipline, head position, service model.
:class:`DiskRequest`   — a submitted transfer (an awaitable event).
:class:`SwapAllocator` — swap-space slot allocator with contiguous runs.
:data:`PRIO_FOREGROUND`, :data:`PRIO_BACKGROUND` — request priorities.
"""

from repro.disk.device import (
    ERA_DISK,
    PRIO_BACKGROUND,
    PRIO_FOREGROUND,
    Disk,
    DiskParams,
    DiskRequest,
)
from repro.disk.swap import SwapAllocator, SwapFullError

__all__ = [
    "Disk",
    "DiskParams",
    "DiskRequest",
    "ERA_DISK",
    "PRIO_BACKGROUND",
    "PRIO_FOREGROUND",
    "SwapAllocator",
    "SwapFullError",
]
