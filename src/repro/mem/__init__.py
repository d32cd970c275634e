"""Virtual-memory substrate.

A model of the Linux 2.2-era VM structures the paper's mechanisms hook
into (paper §2):

* demand paging with zero-fill first touch,
* a physical **frame pool** with ``freepages.min`` / ``freepages.high``
  watermarks driving reclaim,
* per-process **page tables** with present/referenced/dirty bits and a
  last-reference timestamp (vectorised numpy state),
* **victim-selection policies**: a global LRU approximation (the paper's
  narrative baseline) and the Linux 2.2 largest-process clock sweep,
* swap-in **read-ahead** of consecutive swap slots (default 16 pages),
* a **working-set estimator** based on the previous quantum's references,
* the :class:`VirtualMemoryManager` that services faults against the
  disk substrate and exposes the hook points the adaptive mechanisms
  (:mod:`repro.core`) override.
"""

from repro.mem.frames import FramePool, OutOfFramesError
from repro.mem.page_table import PageTable
from repro.mem.params import MemoryParams
from repro.mem.replacement import (
    GlobalLruPolicy,
    LargestProcessClockPolicy,
    PageAgingPolicy,
    ReplacementPolicy,
    VictimBatch,
)
from repro.mem.vmm import FaultStats, VirtualMemoryManager
from repro.mem.working_set import WorkingSetEstimator

__all__ = [
    "FaultStats",
    "FramePool",
    "GlobalLruPolicy",
    "LargestProcessClockPolicy",
    "MemoryParams",
    "OutOfFramesError",
    "PageAgingPolicy",
    "PageTable",
    "ReplacementPolicy",
    "VictimBatch",
    "VirtualMemoryManager",
    "WorkingSetEstimator",
]
