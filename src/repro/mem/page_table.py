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

Views and the mutation epoch
----------------------------
Reclaim, the adaptive mechanisms and the working-set estimator read the
same few views of a table: :meth:`resident_pages`,
:meth:`dirty_resident_pages`, :meth:`candidates` (resident pages with
their ``last_ref``), :meth:`touched_pages` and :meth:`touched_count`.
Every mutator that changes ``present`` / ``dirty`` / ``swap_slot`` /
``last_ref`` bumps :attr:`PageTable.epoch`.  On the fast path
(:func:`repro.sim.set_fast_path_enabled`) each view is cached until the
epoch moves and :attr:`resident_count` is an O(1) counter; under the
scalar oracle every call rescans the arrays and the count is a
``count_nonzero``.  Both return identical arrays (``np.flatnonzero`` is
ascending, gathers are aligned), so the cache never changes a
trajectory.  Cached arrays are shared: callers treat them as read-only.
``referenced`` and ``clock_hand`` writes do **not** bump the epoch — no
view reads them, and the clock policies clear reference bits on every
sweep.  State must therefore be mutated through the methods below (or
followed by an explicit epoch bump), never by writing the arrays
directly; ``tests/mem/test_epoch_contract.py`` fails on any such write
outside this module.

The §3.4 background writer cannot use the cached dirty view: every
burst it writes ends in :meth:`mark_clean`, so the view would never
hit.  It keeps its own oldest-first queue of ``(last_ref, page)`` keys
and uses the epoch for the burst window instead.  The queue validates
several bursts' worth of entries at one epoch and serves picks from
them while the epoch stands still.  A burst that finds the epoch
unchanged at lock grant, and again at write completion apart from its
own :meth:`assign_slots`, skips its re-validation and hands back the
epoch after its :meth:`mark_clean`; the queue then keeps trusting the
rest of the window.  Whether the queue's pick is exact is a separate
question, answered by :attr:`PageTable.dirty_low_water`.  The
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

The aggressive page-out's address cursor (:mod:`repro.core.aggressive`)
needs the opposite bound: the lowest page that became resident since
its last scan.  :meth:`make_resident` is the only mutator that makes a
page resident, and it lowers :attr:`PageTable.made_resident_low`; a scan
starts a watch with :meth:`watch_made_resident` and reads the mark back
with :meth:`made_resident_since`, which answers 0 once another watch
has reset the mark.
"""

from __future__ import annotations

import numpy as np

from repro.sim import fastpath as _fastpath


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
        #: smallest page number :meth:`make_resident` flipped since the
        #: current watch began (see :meth:`watch_made_resident`);
        #: ``num_pages`` when none
        self.made_resident_low = self.num_pages
        self._watch = 0
        # O(1) resident-set size, maintained by make_resident/evict
        self._resident_count = 0
        # views cached at _views_epoch (fast path only)
        self._views: dict = {}
        self._views_epoch = -1

    # -- queries -----------------------------------------------------------
    @property
    def resident_count(self) -> int:
        """Resident set size in pages: O(1) on the fast path, a
        ``count_nonzero`` scan under the scalar oracle."""
        if _fastpath.ENABLED:
            return self._resident_count
        return int(np.count_nonzero(self.present))

    def _view(self, name: str, scan):
        """``scan()``, cached until the next epoch bump on the fast path
        and recomputed on every call under the scalar oracle."""
        if not _fastpath.ENABLED:
            return scan()
        if self._views_epoch != self.epoch:
            self._views_epoch = self.epoch
            self._views = {}
        out = self._views.get(name)
        if out is None:
            out = self._views[name] = scan()
        return out

    def resident_pages(self) -> np.ndarray:
        """Page numbers currently resident, ascending."""
        return self._view("resident", lambda: np.flatnonzero(self.present))

    def dirty_resident_pages(self) -> np.ndarray:
        """Resident pages whose swap copy is missing or stale."""
        return self._view("dirty", lambda: np.flatnonzero(
            self.present & (self.dirty | (self.swap_slot < 0))))

    def candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """Eviction candidates: ``(resident pages, their last_ref)``,
        aligned — what LRU-style victim selection consumes."""
        def scan():
            res = self.resident_pages()
            return res, self.last_ref[res]
        return self._view("candidates", scan)

    def touched_pages(self) -> np.ndarray:
        """Pages the process has ever referenced."""
        return self._view("touched",
                          lambda: np.flatnonzero(self.last_ref > -np.inf))

    def touched_count(self) -> int:
        """Number of pages the process has ever referenced."""
        return int(self.touched_pages().size)

    def swapped_pages(self) -> np.ndarray:
        """Pages that are out of memory but have a swap copy.

        Never cached: the set changes with every page-in of the
        faulting process, so a cache would never hit (the read-ahead
        planner restricts the scan to the relevant slot range instead).
        """
        return np.flatnonzero(~self.present & (self.swap_slot >= 0))

    def absent(self, pages: np.ndarray) -> np.ndarray:
        """Subset of ``pages`` (order preserved) that are not resident."""
        pages = np.asarray(pages, dtype=np.int64)
        return pages[~self.present[pages]]

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
        runs: list[tuple["slice | np.ndarray", float, "bool | np.ndarray"]],
    ) -> None:
        """Apply a batch of :meth:`record_access` updates in one epoch bump.

        ``runs`` is a list of ``(index, now, dirty)`` tuples in access
        order, as :func:`~repro.workloads.base.expand_phase` with
        ``indexed=True`` forms them: ``index`` selects the stamped pages
        (a basic ``slice`` for one contiguous run, else an array of
        distinct page numbers) and ``dirty`` is a bool or a mask aligned
        with the selected pages.  Later stamps overwrite earlier ones
        exactly as the per-chunk calls would.  Callers (the steady-state
        fast path) have already verified residency via the vectorised
        probe, so the per-call ``present`` validation is skipped.  The
        single epoch bump at the end preserves the epoch contract:
        cached views are only consulted *between* mutations, and the
        batch is applied atomically from the simulation's point of view
        (no event can observe a half-applied run).
        """
        if not runs:
            return
        referenced = self.referenced
        last_ref = self.last_ref
        dirty_arr = self.dirty
        low = self.dirty_low_water
        for index, now, dirty in runs:
            referenced[index] = True
            last_ref[index] = now
            if now < low:
                low = now
            if isinstance(dirty, np.ndarray):
                # on a page array ``|=`` gathers, ORs and scatters back;
                # the pages are distinct, so only the masked ones change
                dirty_arr[index] |= dirty
            elif dirty:
                dirty_arr[index] = True
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
        low = int(pages.min())
        if low < self.made_resident_low:
            self.made_resident_low = low
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

    def watch_made_resident(self) -> int:
        """Start a new watch of :attr:`made_resident_low`: reset the mark
        to ``num_pages`` and return the token :meth:`made_resident_since`
        takes.  Starting a watch ends every earlier one."""
        self._watch += 1
        self.made_resident_low = self.num_pages
        return self._watch

    def made_resident_since(self, token: int) -> int:
        """Smallest page made resident since the watch ``token`` began,
        ``num_pages`` if none — or 0 once a later watch has reset the
        mark, since nothing is then known."""
        return self.made_resident_low if token == self._watch else 0

    def clear_referenced(self, pages: np.ndarray | None = None) -> None:
        """Clear reference bits (a clock sweep step; no epoch bump —
        ``referenced`` feeds no view)."""
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
