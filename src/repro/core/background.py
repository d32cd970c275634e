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

#: bursts' worth of queue entries one validation pass checks
WINDOW_BURSTS = 16


class OldestDirtyQueue:
    """Oldest-first ``(last_ref, page)`` queue of one table's
    dirty-resident pages.

    :meth:`refill` scans the table, sorts the dirty-resident pages by
    ``(last_ref, page)`` and resets ``table.dirty_low_water`` to
    ``+inf``.  An entry is *valid* while its page is still present, still
    dirty (or slotless) and still carries its queued key.  Any
    dirty-resident page the queue does not hold that way has
    ``last_ref >= table.dirty_low_water`` (see :mod:`repro.mem.page_table`),
    so a pick whose largest key is strictly below the mark — or which
    exhausts the queue while the mark is still ``+inf`` — equals the
    full-scan answer.

    Validity is checked a window of :data:`WINDOW_BURSTS` bursts at a
    time: one pass from the cursor drops the invalid entries and records
    ``table.epoch``.  While the epoch stays put nothing in the table
    changed, so :meth:`pick` serves the validated entries without
    looking at the table again.  Picked entries stay at the cursor, so
    pages a burst skipped (demanded by a fault) are picked again first,
    as a fresh scan would; :meth:`consume` drops a burst the writer
    proved it wrote whole with no other mutation of the table.

    The validated entries are also *staged* up to :data:`WINDOW_BURSTS`
    bursts at a time (:meth:`_stage`): cut into bursts from the cursor,
    each burst's pages sorted ascending by one row-wise sort, their swap
    slots gathered at once and their slotless pages counted.  A pick
    hands out its staged burst as :attr:`slots` and :attr:`slotless`
    next to the pages; the staged slots stay the table's as long as
    the epoch chain of consumed bursts holds, because a burst touches
    only its own pages.
    """

    __slots__ = ("table", "_pages", "_keys", "_cursor", "_valid_end",
                 "_epoch", "_picked", "_base", "_n", "_rows", "_row_slots",
                 "_row_slotless", "slots", "slotless")

    def __init__(self, table: PageTable) -> None:
        self.table = table
        self.refill()

    def refill(self) -> None:
        """Rebuild the queue from a full scan of the dirty-resident set."""
        t = self.table
        dirty = t.dirty_resident_pages()
        keys = t.last_ref[dirty]
        order = np.argsort(keys, kind="stable")
        self._pages = dirty[order]
        self._keys = keys[order]
        self._cursor = 0
        # every entry of a fresh scan is valid at the current epoch
        self._valid_end = self._pages.size
        self._epoch = t.epoch
        self._picked = 0
        self._unstage()
        t.dirty_low_water = np.inf

    def pick(self, n: int) -> Optional[np.ndarray]:
        """The ``n`` oldest dirty-resident pages in ascending page order,
        or ``None`` when the queue cannot prove that answer exact.

        The returned array is the queue's staged burst (read-only to
        the caller); :attr:`slots` and :attr:`slotless` then hold its
        swap slots and their count of ``-1`` at the table's current
        epoch."""
        t = self.table
        if t.epoch != self._epoch or (
                self._valid_end - self._cursor < n
                and self._valid_end < self._pages.size):
            self._validate(n)
        cursor = self._cursor
        hi = min(cursor + n, self._valid_end)
        low = t.dirty_low_water
        if hi > cursor and self._keys[hi - 1] >= low:
            return None  # a page outside the queue may sort first
        if hi - cursor < n and low != np.inf:
            return None  # the queue ran dry; newer dirty pages may exist
        row, off = divmod(cursor - self._base, n)
        if off or n != self._n or row >= len(self._rows):
            self._stage(n)
            row = 0
        self._picked = hi - cursor
        self.slots = self._row_slots[row]
        self.slotless = self._row_slotless[row]
        return self._rows[row]

    def consume(self, epoch: int) -> None:
        """Drop the last pick: the writer wrote all of it, and ``epoch``
        is the table's epoch after that write, with no other mutation of
        the table since the pick.  The entries behind it are still valid."""
        self._cursor += self._picked
        self._picked = 0
        self._epoch = epoch

    def _validate(self, n: int) -> None:
        """Check the entries from the cursor against the table until
        ``n`` valid ones (or the end of the queue) are found, a window at
        a time, and keep only the valid ones."""
        t = self.table
        present, dirty, slot, last_ref = (t.present, t.dirty, t.swap_slot,
                                          t.last_ref)
        pages, keys = self._pages, self._keys
        end = pages.size
        lo = self._cursor
        span = WINDOW_BURSTS * n
        found = 0
        kept = []  # queue indices of the valid entries, in queue order
        while True:
            hi = min(end, lo + span)
            p = pages[lo:hi]
            ok = np.flatnonzero(present[p] & (dirty[p] | (slot[p] < 0))
                                & (last_ref[p] == keys[lo:hi]))
            kept.append(lo + ok)
            found += ok.size
            lo = hi
            if found >= n or lo >= end:
                break
            span *= 2
        idx = kept[0] if len(kept) == 1 else np.concatenate(kept)
        # compact the checked span [cursor, lo) down to the valid entries
        cursor = lo - idx.size
        pages[cursor:lo] = pages[idx]
        keys[cursor:lo] = keys[idx]
        self._cursor = cursor
        self._valid_end = lo
        self._epoch = t.epoch
        self._unstage()

    def _unstage(self) -> None:
        self._base = self._cursor
        self._n = 0
        self._rows = self._row_slots = self._row_slotless = ()

    def _stage(self, n: int) -> None:
        """Stage up to :data:`WINDOW_BURSTS` bursts of ``n`` validated
        entries from the cursor: pages sorted ascending per burst (one
        row-wise sort, as ``ReplacementPolicy._batched`` does), their
        slots (one gather) and each burst's count of slotless pages.
        Only a burst that ends the validated span can be short (or
        empty, once the queue is used up)."""
        slot = self.table.swap_slot
        lo = self._cursor
        hi = min(self._valid_end, lo + WINDOW_BURSTS * n)
        full = lo + (hi - lo) // n * n
        block = np.sort(self._pages[lo:full].reshape(-1, n), axis=1)
        block_slots = slot[block]
        rows = list(block)
        slots = list(block_slots)
        slotless = np.count_nonzero(block_slots < 0, axis=1).tolist()
        if full < hi or lo == hi:
            tail = np.sort(self._pages[full:hi])
            rows.append(tail)
            slots.append(slot[tail])
            slotless.append(int(np.count_nonzero(slots[-1] < 0)))
        self._base = lo
        self._n = n
        self._rows = rows
        self._row_slots = slots
        self._row_slotless = slotless


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
                if table is not None and table.dirty_resident_pages().size:
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
                # clean_batch drops pages evicted or demanded meanwhile
                # and returns how many it wrote, with the table's epoch
                # when only this burst touched the table since the pick
                written, epoch = yield from vmm.clean_batch(
                    VictimBatch(pid, burst, queue.slots, queue.slotless),
                    PRIO_BACKGROUND, table.epoch)
                if epoch is not None:
                    queue.consume(epoch)
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
