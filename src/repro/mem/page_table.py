"""Per-process page table with vectorised state.

Page state (numpy arrays indexed by virtual page number):

``present``     resident in physical memory
``dirty``       modified since the swap copy was last written
``referenced``  clock/LRU reference bit (cleared by sweeps)
``last_ref``    virtual time of the most recent reference (-inf if never)
``swap_slot``   slot holding the page's swap copy, or -1

Swap-cache semantics (matching Linux 2.2 closely enough for the paper's
mechanisms): a page keeps its swap slot across a page-in, so a *clean*
resident page with a slot can later be discarded without disk I/O —
this is exactly what the §3.4 background writer buys at switch time.
Dirtying a page invalidates (but keeps) the slot; the next page-out
rewrites it in place.

Mutation epoch
--------------
Every mutator that changes ``present`` / ``dirty`` / ``swap_slot`` /
``last_ref`` bumps :attr:`PageTable.epoch`; the per-table
:class:`~repro.mem.index.PageIndex` (reachable as :attr:`PageTable.index`)
uses the epoch to cache the resident / dirty / clean / candidate views
between mutations instead of rescanning the arrays.  ``referenced`` and
``clock_hand`` writes do **not** bump the epoch — no cached view reads
them, and the clock policies clear reference bits on every sweep.
State must therefore be mutated through the methods below (or followed
by an explicit epoch bump), never by writing the arrays directly.

The epoch cannot serve the §3.4 background writer: every burst it
writes ends in :meth:`mark_clean`, so its view of the dirty set would
never hit.  The writer instead keeps its own oldest-first queue of
``(last_ref, page)`` keys and trusts it only while
:attr:`PageTable.dirty_low_water` proves the queue's pick exact.  The
*low-water mark* is the smallest ``last_ref`` any page carried when it
entered the dirty-resident set (``present & (dirty | swap_slot < 0)``)
or was re-stamped, since the writer last reset the mark to ``+inf``.
Every mutator that can do either lowers it: :meth:`record_access`,
:meth:`record_access_runs`, :meth:`set_last_ref`,
:meth:`set_last_ref_values`, :meth:`make_resident` of slotless pages and
:meth:`release_slots` on resident pages.  A dirty-resident page the
queue does not hold with its current key therefore has
``last_ref >= dirty_low_water``; :meth:`evict`, :meth:`mark_clean` and
:meth:`assign_slots` only remove pages from the set and leave the mark
alone.
"""

from __future__ import annotations

import numpy as np

from repro.mem import index as _index_mode
from repro.mem.index import PageIndex


class PageTable:
    """State of one process's virtual address space.

    Parameters
    ----------
    pid:
        Process id (node-local).
    num_pages:
        Size of the address space in pages; page numbers are
        ``0..num_pages-1``.
    """

    def __init__(self, pid: int, num_pages: int) -> None:
        if num_pages <= 0:
            raise ValueError("num_pages must be positive")
        self.pid = pid
        self.num_pages = int(num_pages)
        self.present = np.zeros(self.num_pages, dtype=bool)
        self.dirty = np.zeros(self.num_pages, dtype=bool)
        self.referenced = np.zeros(self.num_pages, dtype=bool)
        self.last_ref = np.full(self.num_pages, -np.inf, dtype=np.float64)
        self.swap_slot = np.full(self.num_pages, -1, dtype=np.int64)
        #: per-process clock hand for sweep-style replacement
        self.clock_hand = 0
        #: mutation epoch — bumped by every state-changing method
        self.epoch = 0
        #: low-water ``last_ref`` of pages that joined the dirty-resident
        #: set or were re-stamped since the background writer reset it
        #: (see the module docstring); ``-inf`` until the first reset
        self.dirty_low_water = -np.inf
        # O(1) resident-set size, maintained by make_resident/evict
        self._resident_count = 0
        #: epoch-cached views (resident / dirty / clean / candidates)
        self.index = PageIndex(self)

    # -- queries -----------------------------------------------------------
    @property
    def resident_count(self) -> int:
        """Resident set size in pages (O(1) — maintained incrementally).

        In scan mode (:func:`repro.mem.index.set_index_enabled` off) the
        count is recomputed from the array, reproducing the pre-index
        cost profile for the identity/benchmark comparison.
        """
        if _index_mode.INDEX_ENABLED:
            return self._resident_count
        return int(np.count_nonzero(self.present))

    def resident_pages(self) -> np.ndarray:
        """Page numbers currently resident, ascending."""
        return self.index.resident_pages()

    def swapped_pages(self) -> np.ndarray:
        """Pages that are out of memory but have a swap copy.

        Not epoch-cached: the set changes with every page-in of the
        faulting process, so a cache would never hit (the read-ahead
        planner restricts the scan to the relevant slot range instead).
        """
        return np.flatnonzero(~self.present & (self.swap_slot >= 0))

    def touched_pages(self) -> np.ndarray:
        """Pages the process has ever referenced."""
        return self.index.touched_pages()

    def absent(self, pages: np.ndarray) -> np.ndarray:
        """Subset of ``pages`` (order preserved) that are not resident."""
        pages = np.asarray(pages, dtype=np.int64)
        return pages[~self.present[pages]]

    def oldest_resident(self, n: int) -> np.ndarray:
        """Up to ``n`` resident pages with the smallest ``last_ref``."""
        res, ages = self.index.candidates()
        if res.size <= n:
            return res
        idx = np.argpartition(ages, n - 1)[:n]
        return res[np.sort(idx)]

    def dirty_resident_pages(self) -> np.ndarray:
        """Resident pages whose swap copy is missing or stale."""
        return self.index.dirty_resident_pages()

    def clean_resident_pages(self) -> np.ndarray:
        """Resident pages discardable without I/O (valid swap copy)."""
        return self.index.clean_resident_pages()

    # -- mutations ---------------------------------------------------------
    def record_access(self, pages: np.ndarray, now: float,
                      dirty: bool | np.ndarray = False) -> None:
        """Mark ``pages`` referenced at ``now``; optionally dirtied.

        ``dirty`` may be a scalar or a boolean mask aligned with
        ``pages``.  All pages must already be resident.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            return
        if not self.present[pages].all():
            raise ValueError("record_access on non-resident page")
        self.referenced[pages] = True
        self.last_ref[pages] = now
        if now < self.dirty_low_water:
            self.dirty_low_water = now
        if np.isscalar(dirty) or isinstance(dirty, bool):
            if dirty:
                self.dirty[pages] = True
        else:
            mask = np.asarray(dirty, dtype=bool)
            if mask.shape != pages.shape:
                raise ValueError("dirty mask shape mismatch")
            self.dirty[pages[mask]] = True
        self.epoch += 1

    def record_access_runs(
        self,
        runs: list[tuple[np.ndarray, float, "bool | np.ndarray"]],
    ) -> None:
        """Apply a batch of :meth:`record_access` updates in one epoch bump.

        ``runs`` is a list of ``(pages, now, dirty)`` tuples in access
        order; later stamps overwrite earlier ones exactly as the
        per-chunk calls would.  Callers (the steady-state fast path)
        have already verified residency via the vectorised probe, so the
        per-call ``present`` validation is skipped.  The single epoch
        bump at the end preserves the PageIndex contract: cached views
        are only consulted *between* mutations, and the batch is applied
        atomically from the simulation's point of view (no event can
        observe a half-applied run).
        """
        if not runs:
            return
        referenced = self.referenced
        last_ref = self.last_ref
        dirty_arr = self.dirty
        low = self.dirty_low_water
        for pages, now, dirty in runs:
            referenced[pages] = True
            last_ref[pages] = now
            if now < low:
                low = now
            if np.isscalar(dirty) or isinstance(dirty, bool):
                if dirty:
                    dirty_arr[pages] = True
            else:
                mask = np.asarray(dirty, dtype=bool)
                if mask.shape != pages.shape:
                    raise ValueError("dirty mask shape mismatch")
                dirty_arr[pages[mask]] = True
        self.dirty_low_water = low
        self.epoch += 1

    def set_last_ref(self, pages: np.ndarray, now: float) -> None:
        """Stamp ``last_ref`` only (a fault-time reference: the freshly
        paged-in pages must not look like the oldest in memory)."""
        if len(pages) == 0:
            return
        self.last_ref[pages] = now
        if now < self.dirty_low_water:
            self.dirty_low_water = now
        self.epoch += 1

    def set_last_ref_values(self, pages: np.ndarray,
                            values: np.ndarray) -> None:
        """Per-page :meth:`set_last_ref` stamps in one epoch bump.

        The batch-advance tier applies a whole run of fault groups at
        once; each group's pages get that group's waiter-resume time,
        exactly as the per-group calls would have stamped them.
        """
        if len(pages) == 0:
            return
        self.last_ref[pages] = values
        self.dirty_low_water = min(self.dirty_low_water, float(np.min(values)))
        self.epoch += 1

    def make_resident(self, pages: np.ndarray) -> None:
        """Flip ``pages`` to present (frames must already be accounted).

        Freshly paged-in or zero-filled pages are clean and referenced;
        the slotless ones join the dirty-resident set with whatever
        ``last_ref`` they carry.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            return
        if self.present[pages].any():
            raise ValueError("make_resident on already-resident page")
        self._lower_low_water(pages[self.swap_slot[pages] < 0])
        self.present[pages] = True
        self.dirty[pages] = False
        self.referenced[pages] = True
        self._resident_count += int(pages.size)
        self.epoch += 1

    def evict(self, pages: np.ndarray) -> None:
        """Flip ``pages`` to non-present (slots must be assigned for any
        page that needs a swap copy *before* calling this)."""
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            return
        if not self.present[pages].all():
            raise ValueError("evict of non-resident page")
        self.present[pages] = False
        self.referenced[pages] = False
        self.dirty[pages] = False
        self._resident_count -= int(pages.size)
        self.epoch += 1

    def mark_clean(self, pages: np.ndarray) -> None:
        """Clear dirty bits after a successful swap write-back."""
        if len(pages) == 0:
            return
        self.dirty[pages] = False
        self.epoch += 1

    def assign_slots(self, pages: np.ndarray, slots: np.ndarray) -> None:
        """Record swap copies for ``pages`` living in ``slots``."""
        pages = np.asarray(pages, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        if pages.shape != slots.shape:
            raise ValueError("pages/slots shape mismatch")
        if pages.size == 0:
            return
        self.swap_slot[pages] = slots
        self.epoch += 1

    def release_slots(self, pages: np.ndarray) -> np.ndarray:
        """Forget swap copies for ``pages``; returns the freed slot ids."""
        pages = np.asarray(pages, dtype=np.int64)
        slots = self.swap_slot[pages]
        if np.any(slots < 0):
            raise ValueError("release_slots on page without a slot")
        # a resident page without a swap copy is dirty-resident again
        self._lower_low_water(pages[self.present[pages]])
        self.swap_slot[pages] = -1
        if pages.size:
            self.epoch += 1
        return slots

    def _lower_low_water(self, entering: np.ndarray) -> None:
        """Lower :attr:`dirty_low_water` to the oldest ``last_ref`` among
        ``entering`` (pages joining the dirty-resident set)."""
        if entering.size:
            low = float(self.last_ref[entering].min())
            if low < self.dirty_low_water:
                self.dirty_low_water = low

    def clear_referenced(self, pages: np.ndarray | None = None) -> None:
        """Clear reference bits (a clock sweep step; no epoch bump —
        ``referenced`` feeds no cached view)."""
        if pages is None:
            self.referenced[:] = False
        else:
            self.referenced[np.asarray(pages, dtype=np.int64)] = False

    # -- invariants (used by property tests and debug assertions) ----------
    def check_invariants(self) -> None:
        """Raise AssertionError if internal state is inconsistent."""
        # dirty or referenced implies present
        assert not np.any(self.dirty & ~self.present), "dirty non-resident page"
        assert not np.any(self.referenced & ~self.present), (
            "referenced non-resident page"
        )
        # a non-resident touched page must have a swap copy
        touched = self.last_ref > -np.inf
        assert not np.any(touched & ~self.present & (self.swap_slot < 0)), (
            "touched page neither resident nor on swap"
        )
        # slots are unique where assigned
        slots = self.swap_slot[self.swap_slot >= 0]
        assert len(np.unique(slots)) == slots.size, "duplicate swap slot"
        # the O(1) resident count tracks the array
        assert self._resident_count == int(np.count_nonzero(self.present)), (
            f"resident_count drift: cached={self._resident_count} "
            f"actual={int(np.count_nonzero(self.present))}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PageTable(pid={self.pid}, pages={self.num_pages}, "
            f"resident={self.resident_count})"
        )


__all__ = ["PageTable"]
