"""Swap-in fault planning with read-ahead.

Linux 2.2 services a swap-in fault by reading the faulted page plus a
window of *consecutive swap slots* (default 16 pages, paper §3.3).  The
planner below turns the list of absent pages a phase is about to touch
(in touch order) into a sequence of fault groups:

* **zero-fill groups** — pages never touched before; no disk I/O, just a
  frame and a minor-fault CPU charge;
* **swap-in groups** — the faulted page and every other absent page of
  the same process whose swap slot falls within the read-ahead window
  starting at the faulted page's slot.  Like the kernel's read-ahead,
  this may drag in pages that were not asked for ("pages that may not
  be useful at all", §3.3) — they occupy frames either way.

Keeping the plan in touch order preserves the interleaving between
zero-fill and disk groups, which is what makes the baseline's scattered
page-in bursts visible in the Figure 6 traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.mem.page_table import PageTable


@dataclass
class FaultGroup:
    """One planned fault service: a set of pages made resident together."""

    pages: np.ndarray          # ascending page numbers
    slots: Optional[np.ndarray]  # matching swap slots, or None for zero-fill
    #: the slot *set* is one consecutive run [slot0, slot0+count) — an
    #: exact judgement the planner makes for free from its slot-sorted
    #: view (``slots`` itself is in page order, where a span test alone
    #: is unsound); batch-advance keys its bulk commits on it
    contig: bool = False
    slot0: int = -1            # first slot of the run when contig

    @property
    def is_zero_fill(self) -> bool:
        return self.slots is None

    @property
    def count(self) -> int:
        return int(self.pages.size)


def dedupe_preserve_order(pages: np.ndarray) -> np.ndarray:
    """Drop repeated page numbers, keeping first-occurrence order."""
    pages = np.asarray(pages, dtype=np.int64)
    if pages.size <= 1:
        return pages
    # Touch traces are overwhelmingly strictly ascending sweeps; those
    # are duplicate-free by construction, so skip the unique() sort.
    if bool((pages[1:] > pages[:-1]).all()):
        return pages
    _, first = np.unique(pages, return_index=True)
    return pages[np.sort(first)]


def plan_swapins(
    table: PageTable, demand: np.ndarray, window: int
) -> list[FaultGroup]:
    """Plan fault groups for ``demand`` (absent pages in touch order).

    Parameters
    ----------
    table:
        The faulting process's page table.
    demand:
        Absent pages in the order the process touches them (deduped by
        the caller or not — duplicates are dropped here).
    window:
        Read-ahead window in pages (slots ``[s, s+window)``).

    Returns
    -------
    Groups in touch order.  Groups are pairwise disjoint; their union
    covers ``demand`` and possibly extra read-ahead pages.
    """
    if window <= 0:
        raise ValueError("read-ahead window must be positive")
    demand = dedupe_preserve_order(demand)
    if demand.size == 0:
        return []
    if table.present[demand].any():
        raise ValueError("plan_swapins expects only absent pages")

    demand_slots = table.swap_slot[demand]

    # Reverse map of this process's swapped-out pages, ordered by slot,
    # for the read-ahead window lookup.  Only slots inside
    # [min demand slot, max demand slot + window) can ever fall in a
    # read-ahead window of this plan, so the map is built over that
    # range instead of every swapped page the process owns — with large
    # residual swap footprints this cuts the dominant scan/argsort cost.
    have_swap = demand_slots >= 0
    if have_swap.any():
        lo_slot = int(demand_slots[have_swap].min())
        hi_slot = int(demand_slots.max()) + window
        in_range = (
            (~table.present)
            & (table.swap_slot >= lo_slot)
            & (table.swap_slot < hi_slot)
        )
        swapped = np.flatnonzero(in_range)
        sw_slots = table.swap_slot[swapped]
        order = np.argsort(sw_slots)
        sw_slots = sw_slots[order]
        sw_pages = swapped[order]
        # The per-page window bounds are independent of planning order,
        # so they are batched into two searchsorted calls up front
        # instead of two numpy calls per faulted page.
        los = np.searchsorted(sw_slots, demand_slots, side="left")
        his = np.searchsorted(sw_slots, demand_slots + window, side="left")
    else:
        # Pure zero-fill demand: no swap copies involved at all.
        sw_slots = sw_pages = np.empty(0, dtype=np.int64)
        los = his = np.zeros(demand.size, dtype=np.int64)

    # When the slot map is page-ascending (slots were handed out in
    # page order — the common case), every window slice is already
    # sorted by page and the per-group argsort is skipped.
    page_asc = sw_pages.size < 2 or bool((np.diff(sw_pages) > 0).all())

    # When the swap-backed demand slots ascend (touch order follows
    # slot order — the dominant case for sequential sweeps), the chosen
    # windows [lo, hi) appear with strictly increasing bounds, so the
    # union of earlier windows is exactly [0, last_hi): the coverage
    # test collapses to one integer compare and no window can partially
    # overlap earlier coverage — the bytearray bookkeeping disappears,
    # and the whole plan is built by array ops (one jump per *group*
    # instead of one loop iteration per demanded page).
    swap_slots_seq = demand_slots[have_swap]
    monotone = swap_slots_seq.size < 2 or bool(
        (swap_slots_seq[1:] > swap_slots_seq[:-1]).all()
    )
    if monotone:
        return _plan_monotone(demand, have_swap, sw_pages, sw_slots,
                              los, his, page_asc)

    # Planned-state bookkeeping lives in *slot-index* space: every
    # swap-backed demand page appears exactly once in the sorted slot
    # map (slots are unique), at position ``los[i]`` (its own slot is
    # the first >= itself).  A bytearray over the map gives C-speed
    # scalar skip tests and slice coverage marks; zero-fill pages need
    # no membership test at all (windows only ever absorb swap-backed
    # pages, and the demand list is already deduplicated).
    covered = bytearray(len(sw_pages))
    groups: list[FaultGroup] = []
    zero_acc: list[int] = []

    def flush_zero():
        if zero_acc:
            groups.append(
                FaultGroup(np.asarray(sorted(zero_acc), dtype=np.int64), None)
            )
            zero_acc.clear()

    # single zip drive: three scalar list indexings per page replaced
    # by tuple unpacking (this loop runs once per demanded page and is
    # the planner's dominant cost at thrash scale)
    slot_list = demand_slots.tolist()
    for page, slot, lo, hi in zip(demand.tolist(), slot_list,
                                  los.tolist(), his.tolist()):
        if slot < 0:
            # Never touched: zero-fill.
            zero_acc.append(page)
            continue
        if covered[lo]:
            continue
        flush_zero()
        # Read-ahead: all absent pages with slots in [slot, slot+window).
        cand_pages = sw_pages[lo:hi]
        cand_slots = sw_slots[lo:hi]
        if 1 in covered[lo:hi]:
            keep = np.frombuffer(covered[lo:hi], dtype=np.uint8) == 0
            cand_pages = cand_pages[keep]
            cand_slots = cand_slots[keep]
        covered[lo:hi] = b"\x01" * (hi - lo)
        # judged on the still-slot-sorted candidate view, where the
        # span test is exact
        first = int(cand_slots[0])
        contig = int(cand_slots[-1]) - first == cand_slots.size - 1
        if page_asc:
            groups.append(FaultGroup(cand_pages, cand_slots,
                                     contig, first))
        else:
            idx = np.argsort(cand_pages)
            groups.append(FaultGroup(cand_pages[idx], cand_slots[idx],
                                     contig, first))

    flush_zero()
    return groups


def _plan_monotone(
    demand: np.ndarray,
    have_swap: np.ndarray,
    sw_pages: np.ndarray,
    sw_slots: np.ndarray,
    los: np.ndarray,
    his: np.ndarray,
    page_asc: bool,
) -> list[FaultGroup]:
    """Array-built plan for the monotone branch of :func:`plan_swapins`.

    Describes exactly the group sequence of the scalar loop it
    replaces: the swap-backed demand pages that *open* a window are
    found by jumping ``lo``-past-previous-``hi`` (monotonicity makes
    ``los`` non-decreasing, so one ``searchsorted`` per emitted group
    lands on the next opener), and zero-fill pages are bucketed —
    sorted within each bucket, as the scalar accumulator did — in
    front of the first later window.
    """
    idx_sb = np.flatnonzero(have_swap)
    zf_raw = demand[~have_swap]
    if idx_sb.size == 0:
        if zf_raw.size:
            return [FaultGroup(np.sort(zf_raw), None)]
        return []
    los_sb = los[idx_sb]
    his_sb = his[idx_sb]
    chosen = np.zeros(idx_sb.size, dtype=bool)
    n = idx_sb.size
    i = 0
    while i < n:
        chosen[i] = True
        # the next opener is the first later page whose window does
        # not overlap this one (own-slot membership guarantees lo < hi,
        # so the jump always advances)
        i = int(np.searchsorted(los_sb, his_sb[i], side="left"))
    los_c = los_sb[chosen]
    his_c = his_sb[chosen]
    nchosen = los_c.size
    # per-group head-model certificates, exact because the map is
    # slot-sorted: span == size-1 means one consecutive run
    firsts = sw_slots[los_c]
    contig = ((sw_slots[his_c - 1] - firsts) == (his_c - los_c - 1)).tolist()
    firsts = firsts.tolist()
    if zf_raw.size:
        # bucket k = zero-fill pages flushed just before chosen group k
        # (touch-order position before that group's); bucket nchosen is
        # the trailing flush.  ``bucket`` is non-decreasing (both index
        # sequences ascend), so a bucket-major stable lexsort equals
        # per-bucket np.sort.
        bucket = np.searchsorted(idx_sb[chosen], np.flatnonzero(~have_swap),
                                 side="left")
        zb = np.searchsorted(bucket, np.arange(nchosen + 2),
                             side="left").tolist()
        zf_pages = zf_raw[np.lexsort((zf_raw, bucket))]
    else:
        zb = [0] * (nchosen + 2)
    groups: list[FaultGroup] = []
    for k, (lo, hi) in enumerate(zip(los_c.tolist(), his_c.tolist())):
        if zb[k] != zb[k + 1]:
            groups.append(FaultGroup(zf_pages[zb[k]:zb[k + 1]], None))
        cand_pages = sw_pages[lo:hi]
        cand_slots = sw_slots[lo:hi]
        if not page_asc:
            idx = np.argsort(cand_pages)
            cand_pages = cand_pages[idx]
            cand_slots = cand_slots[idx]
        groups.append(FaultGroup(cand_pages, cand_slots,
                                 contig[k], firsts[k]))
    if zb[nchosen] != zb[nchosen + 1]:
        groups.append(FaultGroup(zf_pages[zb[nchosen]:], None))
    return groups


def plan_block_reads(
    table: PageTable, pages: np.ndarray, max_batch: int
) -> list[FaultGroup]:
    """Plan large block swap-ins for an explicit page list.

    Used by adaptive page-in (§3.3): ``pages`` is the recorded flush
    list; absent pages with swap copies are grouped into batches of up
    to ``max_batch`` in *slot order*, maximising run contiguity on disk.
    Pages already resident (or with no swap copy) are skipped.
    """
    if max_batch <= 0:
        raise ValueError("max_batch must be positive")
    pages = dedupe_preserve_order(pages)
    if pages.size == 0:
        return []
    mask = (~table.present[pages]) & (table.swap_slot[pages] >= 0)
    pages = pages[mask]
    if pages.size == 0:
        return []
    slots = table.swap_slot[pages]
    order = np.argsort(slots, kind="stable")
    pages = pages[order]
    slots = slots[order]
    groups = []
    for i in range(0, pages.size, max_batch):
        p = pages[i : i + max_batch]
        s = slots[i : i + max_batch]
        first = int(s[0])
        contig = int(s[-1]) - first == s.size - 1
        idx = np.argsort(p)
        groups.append(FaultGroup(p[idx], s[idx], contig, first))
    return groups


__all__ = [
    "FaultGroup",
    "dedupe_preserve_order",
    "plan_block_reads",
    "plan_swapins",
]
