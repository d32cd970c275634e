"""Background writing of dirty pages (§3.4).

While a job is running — during the last fraction of its quantum — a
low-priority writer flushes its dirty pages to swap *without evicting
them*.  At the switch those pages are clean with valid swap copies and
can be discarded without I/O, shortening the page-out burst.  Pages the
job re-dirties after being cleaned are written again; that repeated
writing is the §3.4 cost the 10 %-of-quantum tuning minimises.

Each burst is the ``batch_pages`` oldest-referenced dirty-resident
pages, ties broken by page number.  Rather than re-sorting the whole
dirty set per burst, the writer walks a cached oldest-first queue
(:class:`OldestDirtyQueue`) and refills it from a full scan only when
the page table's low-water mark cannot prove the pick exact.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.disk.device import PRIO_BACKGROUND
from repro.faults.errors import DiskFailure
from repro.mem.page_table import PageTable
from repro.mem.replacement import VictimBatch
from repro.mem.vmm import VirtualMemoryManager
from repro.obs.registry import NULL_OBS
from repro.sim.engine import Interrupt, Process


class OldestDirtyQueue:
    """Oldest-first ``(last_ref, page)`` queue of one table's
    dirty-resident pages.

    :meth:`refill` scans the table, sorts the dirty-resident pages by
    ``(last_ref, page)`` and resets ``table.dirty_low_water`` to
    ``+inf``.  :meth:`pick` then walks the queue from its cursor,
    keeping only entries still present, still dirty (or slotless) and
    still carrying their queued key.  Any dirty-resident page the queue
    does not hold that way has ``last_ref >= table.dirty_low_water`` (see
    :mod:`repro.mem.page_table`), so a pick whose largest key is strictly
    below the mark — or which exhausts the queue while the mark is still
    ``+inf`` — equals the full-scan answer.  Scanned entries that failed
    the check are dropped; picked ones stay, so pages a burst skipped
    (demanded by a fault) are picked again first, as a fresh scan would.
    """

    __slots__ = ("table", "_pages", "_keys", "_cursor")

    def __init__(self, table: PageTable) -> None:
        self.table = table
        self.refill()

    def refill(self) -> None:
        """Rebuild the queue from a full scan of the dirty-resident set."""
        t = self.table
        dirty = t.index.dirty_resident_pages()
        keys = t.last_ref[dirty]
        order = np.argsort(keys, kind="stable")
        self._pages = dirty[order]
        self._keys = keys[order]
        self._cursor = 0
        t.dirty_low_water = np.inf

    def pick(self, n: int) -> Optional[np.ndarray]:
        """The ``n`` oldest dirty-resident pages in ascending page order,
        or ``None`` when the queue cannot prove that answer exact."""
        t = self.table
        present, dirty, slot, last_ref = (t.present, t.dirty, t.swap_slot,
                                          t.last_ref)
        pages, keys = self._pages, self._keys
        end = pages.size
        lo = self._cursor
        span = 2 * n
        need = n
        taken = []  # queue indices of the valid entries, in queue order
        while True:
            hi = min(end, lo + span)
            p = pages[lo:hi]
            ok = np.flatnonzero(present[p] & (dirty[p] | (slot[p] < 0))
                                & (last_ref[p] == keys[lo:hi]))[:need]
            if ok.size == need:
                hi = lo + int(ok[-1]) + 1
            taken.append(lo + ok)
            need -= ok.size
            lo = hi
            if not need or lo >= end:
                break
            span *= 2
        idx = taken[0] if len(taken) == 1 else np.concatenate(taken)
        pick_p = pages[idx]
        pick_k = keys[idx]
        low = t.dirty_low_water
        if pick_k.size and pick_k[-1] >= low:
            return None  # a page outside the queue may sort first
        if need and low != np.inf:
            return None  # the queue ran dry; newer dirty pages may exist
        # compact the scanned span [cursor, lo) down to the picked entries
        cursor = lo - pick_p.size
        pages[cursor:lo] = pick_p
        keys[cursor:lo] = pick_k
        self._cursor = cursor
        return np.sort(pick_p)


class BackgroundWriter:
    """The per-node background dirty-page writer daemon.

    Telemetry: ``bg_bursts`` / ``bg_pages_written`` mirror the burst
    attributes (pages the disk wrote and the table marked clean, not
    pages picked); ``bg_deadline_misses`` counts switches that stopped the
    writer while the job still had dirty resident pages — the writer
    missed its §3.4 deadline of cleaning everything before the quantum
    ended, so the switch path pays for the remainder.
    """

    def __init__(
        self,
        vmm: VirtualMemoryManager,
        batch_pages: int = 64,
        poll_s: float = 1.0,
        obs=NULL_OBS,
    ) -> None:
        if batch_pages <= 0:
            raise ValueError("batch_pages must be positive")
        if poll_s <= 0:
            raise ValueError("poll_s must be positive")
        self.vmm = vmm
        self.batch_pages = batch_pages
        self.poll_s = poll_s
        self._proc: Optional[Process] = None
        self._pid: Optional[int] = None
        #: pages written by the writer, cumulatively (for the §3.4
        #: repeated-writing analysis)
        self.pages_written = 0
        #: completed bursts that wrote at least one page
        self.bursts = 0
        #: bursts abandoned because the write failed permanently
        self.write_failures = 0
        self._obs_on = obs.enabled
        self._c_bursts = obs.counter("bg_bursts", node=vmm.name)
        self._c_pages = obs.counter("bg_pages_written", node=vmm.name)
        self._c_misses = obs.counter("bg_deadline_misses", node=vmm.name)
        self._c_failures = obs.counter("bg_write_failures", node=vmm.name)

    @property
    def active(self) -> bool:
        """True while a writer process is running."""
        return self._proc is not None and self._proc.is_alive

    @property
    def pid(self) -> Optional[int]:
        return self._pid

    def start(self, pid: int) -> None:
        """``start_bgwrite(inpid)`` of §3.5: begin flushing ``pid``'s
        dirty pages at low priority."""
        if self.active:
            raise RuntimeError("background writer already active")
        if pid not in self.vmm.tables:
            raise KeyError(f"unknown pid {pid}")
        self._pid = pid
        self._proc = self.vmm.env.process(self._run(pid))

    def stop(self) -> None:
        """``stop_bgwrite()`` of §3.5: halt the writer (idempotent).

        Called when the actual job switch begins; a burst already queued
        on the disk completes (the device is non-preemptive), but no new
        burst is started.  That interrupted burst is not counted in
        :attr:`pages_written` or :attr:`bursts`: the writer never sees it
        finish, so its pages stay dirty and count when written again.
        """
        if self.active:
            if self._obs_on:
                table = self.vmm.tables.get(self._pid)
                if table is not None and table.index.dirty_resident_pages().size:
                    self._c_misses.inc()
            self._proc.interrupt("stop_bgwrite")
        self._proc = None
        self._pid = None

    def _run(self, pid: int):
        vmm = self.vmm
        queue: Optional[OldestDirtyQueue] = None
        try:
            while True:
                table = vmm.tables.get(pid)
                if table is None:
                    return  # process exited
                # Write oldest-referenced dirty pages first: they are the
                # least likely to be re-dirtied before the switch.
                if queue is None or queue.table is not table:
                    queue = OldestDirtyQueue(table)
                burst = queue.pick(self.batch_pages)
                if burst is None:
                    queue.refill()
                    burst = queue.pick(self.batch_pages)
                if burst.size == 0:
                    yield vmm.env.timeout(self.poll_s)
                    continue
                # evict_batch drops pages evicted or demanded meanwhile
                # and returns how many it wrote
                written = yield from vmm.evict_batch(
                    VictimBatch(pid, burst),
                    priority=PRIO_BACKGROUND,
                    keep_resident=True,
                )
                if not written:
                    # Every page was evicted or is demanded by a fault in
                    # flight.  Picking again at once would return the
                    # demanded pages and spin at this virtual instant
                    # while the fault waits for time to pass, so back
                    # off as if nothing were dirty.
                    if pid in vmm.tables:
                        yield vmm.env.timeout(self.poll_s)
                    continue
                self.pages_written += written
                self.bursts += 1
                self._c_bursts.inc()
                self._c_pages.inc(written)
        except Interrupt:
            return
        except DiskFailure:
            # Background writing is an optimisation: a permanently
            # failed low-priority write just stops the writer for this
            # quantum; the switch path will write those pages instead.
            self.write_failures += 1
            self._c_failures.inc()
            return


__all__ = ["BackgroundWriter", "OldestDirtyQueue"]
