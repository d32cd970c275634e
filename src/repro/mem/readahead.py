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
    # Positions (in touch order) of the swap-backed demand pages; the
    # rest are never-touched pages that are zero-filled.
    swap_pos = np.flatnonzero(demand_slots >= 0)
    if swap_pos.size == 0:
        return [FaultGroup(np.sort(demand), None)]
    swap_slots = demand_slots[swap_pos]
    zero_pages = demand[demand_slots < 0]

    # Reverse map of this process's swapped-out pages, ordered by slot,
    # for the read-ahead window lookup.  Only slots inside
    # [min demand slot, max demand slot + window) can ever fall in a
    # read-ahead window of this plan, so the map is built over that
    # range instead of every swapped page the process owns — with large
    # residual swap footprints this cuts the dominant scan/argsort cost.
    lo_slot = int(swap_slots.min())
    hi_slot = int(swap_slots.max()) + window
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
    los = np.searchsorted(sw_slots, swap_slots, side="left")
    his = np.searchsorted(sw_slots, swap_slots + window, side="left")
    # Zero-fill pages touched before the k-th swap-backed page: the
    # zero-fill run between two group leaders is one sorted group.
    zeros_before = swap_pos - np.arange(swap_pos.size)

    # When the slot map is page-ascending (slots were handed out in
    # page order — the common case), every window slice is already
    # sorted by page and the per-group argsort is skipped.
    page_asc = sw_pages.size < 2 or bool((np.diff(sw_pages) > 0).all())

    # Planned-state bookkeeping lives in *slot-index* space: every
    # swap-backed demand page appears exactly once in the sorted slot
    # map (slots are unique), at position ``los[i]`` (its own slot is
    # the first >= itself).  A bytearray over the map gives C-speed
    # scalar skip tests and slice coverage marks.  Only swap-backed
    # pages are visited: windows never absorb zero-fill pages.
    covered = bytearray(len(sw_pages))
    slot_list = sw_slots.tolist()
    groups: list[FaultGroup] = []
    zero_done = 0
    for lo, hi, z in zip(los.tolist(), his.tolist(), zeros_before.tolist()):
        if covered[lo]:
            continue
        if z > zero_done:
            groups.append(FaultGroup(np.sort(zero_pages[zero_done:z]), None))
            zero_done = z
        # Read-ahead: all absent pages with slots in [slot, slot+window).
        cand_pages = sw_pages[lo:hi]
        cand_slots = sw_slots[lo:hi]
        # the contiguity test is judged on the slot-sorted candidates,
        # where the span test is exact; the first one is never covered
        first = slot_list[lo]
        span = covered[lo:hi]
        if 1 in span:
            keep = np.frombuffer(span, dtype=np.uint8) == 0
            cand_pages = cand_pages[keep]
            cand_slots = cand_slots[keep]
            contig = int(cand_slots[-1]) - first == cand_slots.size - 1
        else:
            contig = slot_list[hi - 1] - first == hi - lo - 1
        covered[lo:hi] = b"\x01" * (hi - lo)
        if not page_asc:
            idx = cand_pages.argsort()
            cand_pages = cand_pages[idx]
            cand_slots = cand_slots[idx]
        groups.append(FaultGroup(cand_pages, cand_slots, contig, first))

    if zero_done < zero_pages.size:
        groups.append(FaultGroup(np.sort(zero_pages[zero_done:]), None))
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
