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

Both planners return one :class:`ReadPlan`: flat arrays indexed by
group number, so a plan of thousands of groups costs a handful of
numpy arrays rather than one Python object per group.
"""

from __future__ import annotations

import numpy as np

from repro.mem.page_table import PageTable


class ReadPlan:
    """Planned fault groups in array form.

    Group ``k`` is ``pages[bounds[k]:bounds[k + 1]]``, ascending, with
    its swap slots at the same positions of ``slots`` (``-1`` for a
    zero-fill page).  Per group:

    ``read``
        served from swap (``False`` for a zero-fill group);
    ``contig``
        the group's slot *set* is one consecutive run
        ``[slot0, slot0 + size)`` — judged exactly on the slot-sorted
        view (``slots`` is in page order, where a span test alone is
        unsound); batch-advance keys its bulk commits on it;
    ``slot0``
        the group's lowest slot (``-1`` for zero-fill).

    Groups are pairwise disjoint.  The arrays are never mutated after
    planning, so consumers may hand out views of them.
    """

    __slots__ = ("pages", "slots", "bounds", "read", "contig", "slot0")

    def __init__(self, pages: np.ndarray, slots: np.ndarray,
                 bounds: np.ndarray, read: np.ndarray, contig: np.ndarray,
                 slot0: np.ndarray) -> None:
        self.pages = pages
        self.slots = slots
        self.bounds = bounds
        self.read = read
        self.contig = contig
        self.slot0 = slot0

    def __len__(self) -> int:
        return self.read.size

    @classmethod
    def empty(cls) -> "ReadPlan":
        none = np.empty(0, dtype=np.int64)
        return cls(none, none, np.zeros(1, dtype=np.int64),
                   np.empty(0, dtype=bool), np.empty(0, dtype=bool), none)


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
) -> ReadPlan:
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
    A :class:`ReadPlan` with its groups in touch order.  Groups are
    pairwise disjoint; their union covers ``demand`` and possibly extra
    read-ahead pages.
    """
    if window <= 0:
        raise ValueError("read-ahead window must be positive")
    demand = dedupe_preserve_order(demand)
    if demand.size == 0:
        return ReadPlan.empty()
    if table.present[demand].any():
        raise ValueError("plan_swapins expects only absent pages")

    demand_slots = table.swap_slot[demand]
    # Positions (in touch order) of the swap-backed demand pages; the
    # rest are never-touched pages that are zero-filled.
    swap_pos = np.flatnonzero(demand_slots >= 0)
    if swap_pos.size == 0:
        return ReadPlan(np.sort(demand), np.full(demand.size, -1),
                        np.array([0, demand.size], dtype=np.int64),
                        np.zeros(1, dtype=bool), np.zeros(1, dtype=bool),
                        np.full(1, -1, dtype=np.int64))
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
    # Every swap-backed demand page sits in the slot map exactly once
    # (slots are unique), at index ``los[i]``; its window is the index
    # range [los[i], his[i]).
    los = np.searchsorted(sw_slots, swap_slots, side="left")
    his = np.searchsorted(sw_slots, swap_slots + window, side="left")

    # Jump table: the demand positions cut into runs along which the
    # slot index steps by one, so run r holds slot indices
    # [run_lo[r], run_hi[r]) from position run_pos[r] on.  Inside a run
    # the loop moves in slot-index space: a leader's window covers the
    # run up to its own end, and a stretch already covered ends at the
    # first uncovered index, so either is skipped in one step.
    n = los.size
    run_pos = np.flatnonzero(np.diff(los, prepend=-2) != 1)
    run_lo = los[run_pos]
    run_hi = run_lo + np.diff(run_pos, append=n)

    # The leader loop: the first uncovered demand page in touch order
    # opens a group and covers its whole window.  Coverage lives in
    # slot-index space, where a bytearray gives C-speed scalar tests,
    # searches and slice marks; the loop sees Python ints only.
    covered = bytearray(sw_pages.size)
    leaders = []
    for pos, x, end in zip(run_pos.tolist(), run_lo.tolist(),
                           run_hi.tolist()):
        base = pos - x  # slot index x is demand position base + x
        while x < end:
            if covered[x]:
                x = covered.find(0, x, end)
                if x < 0:
                    break
            hi = his.item(base + x)
            leaders.append(base + x)
            covered[x:hi] = b"\x01" * (hi - x)
            x = hi

    # Gather every leader window at once, in leader order.
    leaders = np.array(leaders, dtype=np.int64)
    g_lo = los[leaders]
    width = his[leaders] - g_lo
    offsets = np.zeros(leaders.size + 1, dtype=np.int64)
    np.cumsum(width, out=offsets[1:])
    idx = np.arange(offsets[-1]) + np.repeat(g_lo - offsets[:-1], width)
    if offsets[-1] > covered.count(1):
        # some window overlaps an earlier group's: every slot-map entry
        # stays only in the first group (in leader order) that claims it
        gid = np.repeat(np.arange(leaders.size), width)
        owner = np.full(sw_pages.size, leaders.size)
        np.minimum.at(owner, idx, gid)
        keep = owner[idx] == gid
        idx = idx[keep]
        counts = np.bincount(gid[keep], minlength=leaders.size)
        np.cumsum(counts, out=offsets[1:])
    else:
        counts = width
    # contiguity on the slot-sorted view: the leader's own slot is the
    # group's lowest, its last kept entry the highest
    slot0 = sw_slots[g_lo]
    contig = sw_slots[idx[offsets[1:] - 1]] - slot0 == counts - 1

    # Zero-fill pages touched before leader k form one group just ahead
    # of it (when there are any); the rest form a trailing group.
    zeros_before = swap_pos[leaders] - leaders
    zero_counts = np.diff(zeros_before, prepend=0, append=zero_pages.size)
    read_seg = np.arange(leaders.size) + np.cumsum(zero_counts[:-1] > 0)
    ngroups = int(read_seg[-1]) + 1 + int(zero_counts[-1] > 0)
    zero_seg = np.repeat(np.append(read_seg - 1, ngroups - 1), zero_counts)

    # One sort by (group, page) orders every group's pages ascending and
    # interleaves the zero-fill groups; slots are read back from the
    # table (-1 for the zero-fill pages).
    seg = np.concatenate((np.repeat(read_seg, counts), zero_seg))
    bounds = np.zeros(ngroups + 1, dtype=np.int64)
    np.cumsum(np.bincount(seg, minlength=ngroups), out=bounds[1:])
    span = table.num_pages
    key = seg * span
    key += np.concatenate((sw_pages[idx], zero_pages))
    key.sort()
    pages = key % span
    read = np.zeros(ngroups, dtype=bool)
    read[read_seg] = True
    group_contig = np.zeros(ngroups, dtype=bool)
    group_contig[read_seg] = contig
    group_slot0 = np.full(ngroups, -1, dtype=np.int64)
    group_slot0[read_seg] = slot0
    return ReadPlan(pages, table.swap_slot[pages], bounds, read,
                    group_contig, group_slot0)


def plan_block_reads(
    table: PageTable, pages: np.ndarray, max_batch: int
) -> ReadPlan:
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
        return ReadPlan.empty()
    mask = (~table.present[pages]) & (table.swap_slot[pages] >= 0)
    pages = pages[mask]
    if pages.size == 0:
        return ReadPlan.empty()
    slots = table.swap_slot[pages]
    order = np.argsort(slots, kind="stable")
    pages = pages[order]
    slots = slots[order]
    n = pages.size
    bounds = np.append(np.arange(0, n, max_batch), n)
    slot0 = slots[bounds[:-1]]
    contig = slots[bounds[1:] - 1] - slot0 == np.diff(bounds) - 1
    # pages ascending within each batch
    order = np.lexsort((pages, np.arange(n) // max_batch))
    return ReadPlan(pages[order], slots[order], bounds,
                    np.ones(slot0.size, dtype=bool), contig, slot0)


__all__ = [
    "ReadPlan",
    "dedupe_preserve_order",
    "plan_block_reads",
    "plan_swapins",
]
