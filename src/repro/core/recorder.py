"""Page-record lists for adaptive page-in (§3.3, Fig. 4).

As pages are flushed out at a job switch, the kernel records, per
process, the flushed addresses compressed as ``(base, offset)`` runs —
"our page recording module records just the offset as the number of
contiguous pages from a given page address, thereby saving [a]
substantial amount of kernel memory" (§3.3).  When the process is
rescheduled, the recorded list is replayed as induced faults.
The recorder keeps a per-process checksum over its stored runs, the
stand-in for the kernel validating the record before replaying it.  An
attached :class:`~repro.faults.plan.FaultPlan` may drop a flush batch
(record loss) or store a perturbed run without updating the checksum
(corruption); :meth:`PageRecorder.take` then raises
:class:`~repro.faults.errors.RecordCorrupted`, and adaptive page-in
falls back to plain demand paging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.faults.errors import RecordCorrupted
from repro.faults.plan import FaultPlan
from repro.obs.registry import NULL_OBS


@dataclass(frozen=True)
class PageRun:
    """A maximal run of contiguous flushed pages: ``base .. base+count-1``."""

    base: int
    count: int

    def pages(self) -> np.ndarray:
        """Expand the run into its page numbers."""
        return np.arange(self.base, self.base + self.count, dtype=np.int64)


def compress_runs(pages: np.ndarray) -> list[PageRun]:
    """Compress sorted-or-not page numbers into maximal contiguous runs.

    Input order within the array is not meaningful for a single flush
    batch (the batch is written as one I/O); runs are emitted in
    ascending base order.  Duplicates count once: after the sort, a
    run breaks only where a neighbour is more than one page above the
    page before it, and its count is its last page minus its base plus
    one.
    """
    arr = np.sort(np.asarray(pages, dtype=np.int64))
    if arr.size == 0:
        return []
    cuts = np.flatnonzero(arr[1:] - arr[:-1] > 1)
    firsts = [int(arr[0])] + arr[cuts + 1].tolist()
    lasts = arr[cuts].tolist() + [int(arr[-1])]
    return [PageRun(b, e - b + 1) for b, e in zip(firsts, lasts)]


class PageRecorder:
    """Per-process flush records, in flush order.

    The recorder is an ``on_flush`` observer for the VMM: every eviction
    batch of a *non-running* process is appended as compressed runs.
    ``take()`` hands the recorded pages (flush order preserved at batch
    granularity) to the adaptive page-in path and clears the record.
    """

    def __init__(self, faults: Optional[FaultPlan] = None,
                 owner: str = "recorder", obs=NULL_OBS) -> None:
        self._runs: dict[int, list[PageRun]] = {}
        # checksum over the *true* run list; stored runs that drift from
        # it (injected corruption) are detected at take()
        self._checksums: dict[int, int] = {}
        self.faults = faults
        self.owner = owner
        self.records_lost = 0
        self.records_corrupted = 0
        self._c_lost = obs.counter("ai_records_lost", node=owner)
        self._c_corrupted = obs.counter("ai_records_corrupted", node=owner)

    @staticmethod
    def _fold(acc: int, runs: list[PageRun]) -> int:
        """Order-dependent polynomial checksum over ``runs``."""
        for r in runs:
            acc = (acc * 1000003 + r.base * 31 + r.count) & 0xFFFFFFFF
        return acc

    def record(self, pid: int, pages: np.ndarray) -> None:
        """Append one flush batch for ``pid``."""
        if pages.size == 0:
            return
        runs = compress_runs(pages)
        if self.faults is not None and self.faults.record_lost(self.owner):
            # the batch never reaches the record (lost kernel update)
            self.records_lost += 1
            self._c_lost.inc()
            return
        self._checksums[pid] = self._fold(self._checksums.get(pid, 0), runs)
        if self.faults is not None and self.faults.record_corrupt(self.owner):
            # store a perturbed first run; the checksum (computed over
            # the true runs above) no longer matches
            self.records_corrupted += 1
            self._c_corrupted.inc()
            runs = [PageRun(runs[0].base ^ 1, runs[0].count)] + runs[1:]
        self._runs.setdefault(pid, []).extend(runs)

    def take(self, pid: int) -> np.ndarray:
        """Return and clear the recorded pages for ``pid`` (flush order).

        Raises
        ------
        RecordCorrupted
            If the stored runs fail their checksum.  The record is
            consumed either way, so the caller can simply fall back to
            demand paging.
        """
        runs = self._runs.pop(pid, [])
        expected = self._checksums.pop(pid, 0)
        if self._fold(0, runs) != expected:
            raise RecordCorrupted(
                f"{self.owner}: page-in record for pid {pid} failed its "
                f"checksum ({len(runs)} runs)"
            )
        if not runs:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([r.pages() for r in runs])

    def peek(self, pid: int) -> list[PageRun]:
        """The current runs for ``pid`` without clearing them."""
        return list(self._runs.get(pid, []))

    def clear(self, pid: int) -> None:
        """Drop records for ``pid`` (e.g. on process exit)."""
        self._runs.pop(pid, None)
        self._checksums.pop(pid, None)

    def recorded_pages(self, pid: int) -> int:
        """Total pages currently recorded for ``pid``."""
        return sum(r.count for r in self._runs.get(pid, []))

    def record_entries(self, pid: int) -> int:
        """Number of (base, offset) records — the §3.3 kernel-memory
        footprint of the mechanism."""
        return len(self._runs.get(pid, []))


__all__ = ["PageRecorder", "PageRun", "compress_runs"]
