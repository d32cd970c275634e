"""Unit tests for fault planning / read-ahead."""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import PageTable
from repro.mem.readahead import (
    dedupe_preserve_order,
    plan_block_reads,
    plan_swapins,
)


def swapped_table(n=64, pages=(), slots=()):
    """A table where ``pages`` are swapped out at ``slots``."""
    t = PageTable(1, n)
    arr = np.asarray(pages, dtype=np.int64)
    if arr.size:
        t.make_resident(arr)
        t.record_access(arr, now=1.0)
        t.assign_slots(arr, np.asarray(slots, dtype=np.int64))
        t.evict(arr)
    return t


def group(plan, k):
    """Group ``k``'s pages and slots."""
    a, b = plan.bounds[k], plan.bounds[k + 1]
    return plan.pages[a:b], plan.slots[a:b]


def group_pages(plan):
    """Each group's pages, as lists, in plan order."""
    return [group(plan, k)[0].tolist() for k in range(len(plan))]


def group_sizes(plan):
    return np.diff(plan.bounds).tolist()


def test_dedupe_preserve_order():
    out = dedupe_preserve_order(np.array([3, 1, 3, 2, 1]))
    assert list(out) == [3, 1, 2]


def test_zero_fill_only():
    t = PageTable(1, 16)
    plan = plan_swapins(t, np.array([4, 5, 6]), window=16)
    assert len(plan) == 1
    assert not plan.read[0]
    assert group_pages(plan) == [[4, 5, 6]]
    assert plan.slots.tolist() == [-1, -1, -1]


def test_swapin_groups_by_slot_window():
    # pages 0..7 swapped at contiguous slots 100..107, window 4
    t = swapped_table(pages=range(8), slots=range(100, 108))
    plan = plan_swapins(t, np.arange(8), window=4)
    assert group_pages(plan) == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert plan.read.tolist() == [True, True]


def test_readahead_pulls_unrequested_pages():
    """Pages within the slot window come in even if not demanded."""
    t = swapped_table(pages=[0, 1, 2], slots=[100, 101, 102])
    plan = plan_swapins(t, np.array([0]), window=16)
    assert group_pages(plan) == [[0, 1, 2]]


def test_scattered_slots_one_group_each():
    """Pages whose slots are far apart cannot share a read."""
    t = swapped_table(pages=[0, 1, 2], slots=[100, 500, 900])
    plan = plan_swapins(t, np.arange(3), window=16)
    assert group_sizes(plan) == [1, 1, 1]


def test_mixed_zero_and_swap_preserves_touch_order():
    t = swapped_table(n=32, pages=[10], slots=[200])
    # touch order: untouched 0, swapped 10, untouched 1
    plan = plan_swapins(t, np.array([0, 10, 1]), window=8)
    assert plan.read.tolist() == [False, True, False]
    assert group_pages(plan) == [[0], [10], [1]]


def test_groups_are_disjoint_and_cover_demand():
    t = swapped_table(pages=range(20), slots=range(300, 320))
    demand = np.array([5, 0, 17, 3, 11])
    got = plan_swapins(t, demand, window=6).pages
    assert len(np.unique(got)) == got.size  # disjoint
    assert set(demand).issubset(set(got))   # covered


def test_demand_with_duplicates_ok():
    t = swapped_table(pages=[0], slots=[100])
    plan = plan_swapins(t, np.array([0, 0, 0]), window=4)
    assert group_pages(plan) == [[0]]


def test_resident_demand_rejected():
    t = PageTable(1, 8)
    t.make_resident(np.array([0]))
    with pytest.raises(ValueError):
        plan_swapins(t, np.array([0]), window=4)


def test_bad_window_rejected():
    t = PageTable(1, 8)
    with pytest.raises(ValueError):
        plan_swapins(t, np.array([0]), window=0)


def test_empty_demand():
    t = PageTable(1, 8)
    plan = plan_swapins(t, np.array([], dtype=np.int64), window=4)
    assert len(plan) == 0
    assert plan.bounds.tolist() == [0]


def test_slots_match_pages_in_groups():
    t = swapped_table(pages=[4, 5, 6], slots=[100, 101, 102])
    plan = plan_swapins(t, np.array([4]), window=16)
    pages, slots = group(plan, 0)
    assert np.array_equal(t.swap_slot[pages], slots)


# ---------------------------------------------------------------------------
# plan_swapins against a committed reference
# ---------------------------------------------------------------------------

@dataclass
class FaultGroup:
    """One group of the reference plan (the object-per-group shape the
    planner had before it returned flat arrays)."""

    pages: np.ndarray
    slots: Optional[np.ndarray]
    contig: bool = False
    slot0: int = -1

    @property
    def is_zero_fill(self) -> bool:
        return self.slots is None


def reference_plan_swapins(table, demand, window):
    """The reference plan: one loop over every demanded page, zero-fill
    pages accumulated and flushed as a sorted group before the next
    read-ahead group."""
    if window <= 0:
        raise ValueError("read-ahead window must be positive")
    demand = dedupe_preserve_order(demand)
    if demand.size == 0:
        return []
    if table.present[demand].any():
        raise ValueError("plan_swapins expects only absent pages")
    demand_slots = table.swap_slot[demand]
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
        los = np.searchsorted(sw_slots, demand_slots, side="left")
        his = np.searchsorted(sw_slots, demand_slots + window, side="left")
    else:
        sw_slots = sw_pages = np.empty(0, dtype=np.int64)
        los = his = np.zeros(demand.size, dtype=np.int64)
    page_asc = sw_pages.size < 2 or bool((np.diff(sw_pages) > 0).all())
    covered = bytearray(len(sw_pages))
    groups = []
    zero_acc = []

    def flush_zero():
        if zero_acc:
            groups.append(
                FaultGroup(np.asarray(sorted(zero_acc), dtype=np.int64), None)
            )
            zero_acc.clear()

    for page, slot, lo, hi in zip(demand.tolist(), demand_slots.tolist(),
                                  los.tolist(), his.tolist()):
        if slot < 0:
            zero_acc.append(page)
            continue
        if covered[lo]:
            continue
        flush_zero()
        cand_pages = sw_pages[lo:hi]
        cand_slots = sw_slots[lo:hi]
        if 1 in covered[lo:hi]:
            keep = np.frombuffer(covered[lo:hi], dtype=np.uint8) == 0
            cand_pages = cand_pages[keep]
            cand_slots = cand_slots[keep]
        covered[lo:hi] = b"\x01" * (hi - lo)
        first = int(cand_slots[0])
        contig = int(cand_slots[-1]) - first == cand_slots.size - 1
        if page_asc:
            groups.append(FaultGroup(cand_pages, cand_slots, contig, first))
        else:
            idx = np.argsort(cand_pages)
            groups.append(FaultGroup(cand_pages[idx], cand_slots[idx],
                                     contig, first))
    flush_zero()
    return groups


@st.composite
def plan_inputs(draw):
    """A table of resident, swapped-out and never-touched pages and a
    demand over its absent pages, duplicates allowed.

    Swap slots are sparse or dense and laid out in one of three ways:
    in page order, fully shuffled, or the way global LRU hands them
    out — cluster-sized batches, each page-ascending on consecutive
    slots, with the batches in shuffled order.  Some resident pages
    keep a swap copy.  ``kind`` restricts the demand to zero-fill pages,
    swapped pages or both; it is either a random draw or an ascending
    sweep over the pool that wraps around once, the touch order of a
    workload phase."""
    n = draw(st.integers(1, 120))
    state = np.asarray(draw(st.lists(st.sampled_from("rsz"), min_size=n,
                                     max_size=n)))
    slotted = np.flatnonzero(state != "z")
    spread = draw(st.sampled_from([1, 3]))  # dense or sparse swap slots
    slots = np.sort(np.asarray(draw(st.lists(
        st.integers(0, spread * n), min_size=slotted.size,
        max_size=slotted.size, unique=True)), dtype=np.int64))
    layout = draw(st.sampled_from(["page", "shuffled", "batched"]))
    if layout == "shuffled":
        slots = slots[np.asarray(draw(st.permutations(range(slots.size))),
                                 dtype=np.int64)]
    elif layout == "batched" and slots.size:
        cluster = draw(st.integers(2, 8))
        nbatch = -(-slots.size // cluster)
        batch_order = draw(st.permutations(range(nbatch)))
        # the j-th page in eviction order takes the j-th lowest slot
        evict_order = np.concatenate([
            np.arange(b * cluster, min((b + 1) * cluster, slots.size))
            for b in batch_order])
        laid = np.empty_like(slots)
        laid[evict_order] = slots
        slots = laid
    t = PageTable(1, n)
    if slotted.size:
        t.make_resident(slotted)
        t.assign_slots(slotted, slots)
        t.evict(np.flatnonzero(state == "s"))
    kind = draw(st.sampled_from(["zero", "swap", "mixed"]))
    pool = {"zero": state == "z", "swap": state == "s",
            "mixed": state != "r"}[kind]
    pool = np.flatnonzero(pool)
    if pool.size and draw(st.booleans()):
        start = draw(st.integers(0, pool.size - 1))
        demand = np.roll(pool, -start)
    else:
        demand = np.asarray(draw(st.lists(st.sampled_from(pool.tolist()),
                                          max_size=2 * n))
                            if pool.size else [], dtype=np.int64)
    window = draw(st.integers(1, 20))
    return t, demand, window


@given(plan_inputs())
@settings(max_examples=400, deadline=None)
def test_plan_equals_the_reference(inputs):
    t, demand, window = inputs
    plan = plan_swapins(t, demand, window)
    expected = reference_plan_swapins(t, demand, window)
    assert len(plan) == len(expected)
    assert plan.bounds[0] == 0 and plan.bounds[-1] == plan.pages.size
    assert plan.slots.size == plan.pages.size
    for k, e in enumerate(expected):
        pages, slots = group(plan, k)
        assert pages.dtype == e.pages.dtype
        np.testing.assert_array_equal(pages, e.pages)
        assert bool(plan.read[k]) == (not e.is_zero_fill)
        if e.is_zero_fill:
            assert (slots == -1).all()
        else:
            np.testing.assert_array_equal(slots, e.slots)
        assert (bool(plan.contig[k]), int(plan.slot0[k])) == \
            (e.contig, e.slot0)


def test_window_overlapping_an_earlier_group_drops_its_pages():
    # slots 100..107 in page order; demand 4 first takes slots 104..107,
    # then demand 1's window [101, 109) keeps only 101..103
    t = swapped_table(pages=range(8), slots=range(100, 108))
    plan = plan_swapins(t, np.array([4, 1, 0]), window=8)
    assert group_pages(plan) == [[4, 5, 6, 7], [1, 2, 3], [0]]
    assert list(zip(plan.contig.tolist(), plan.slot0.tolist())) == \
        [(True, 104), (True, 101), (True, 100)]


def test_partial_overlap_keeps_the_first_claimant():
    # LRU-style layout: batch [4..7] took slots 100..103, batch [0..3]
    # slots 104..107.  Demand 6 claims slots 102..105 (pages 6, 7, 0, 1);
    # demand 2's window [106, 110) is untouched, demand 5's window
    # [101, 105) keeps only slot 101, and page 4 is left alone
    t = swapped_table(pages=[4, 5, 6, 7, 0, 1, 2, 3],
                      slots=range(100, 108))
    plan = plan_swapins(t, np.array([6, 2, 5, 4]), window=4)
    assert group_pages(plan) == [[0, 1, 6, 7], [2, 3], [5], [4]]
    assert plan.slots.tolist() == [104, 105, 102, 103, 106, 107, 101, 100]
    assert plan.contig.tolist() == [True, True, True, True]
    assert plan.slot0.tolist() == [102, 106, 101, 100]


def test_jump_stops_where_the_slot_run_breaks():
    # page 0's window (slots 10..19) reads pages 0..2, but the next
    # demanded page, 3, sits on slot 0: the demand's slot indices do not
    # step by one there, so page 3 must still open its own group
    t = swapped_table(pages=range(4), slots=[10, 11, 12, 0])
    plan = plan_swapins(t, np.array([0, 3]), window=10)
    assert group_pages(plan) == [[0, 1, 2], [3]]
    assert plan.slot0.tolist() == [10, 0]


def test_hand_written_plans_match_the_reference():
    cases = [
        (swapped_table(pages=[4, 5, 6, 7, 0, 1, 2, 3], slots=range(100, 108)),
         np.array([6, 2, 5, 4]), 4),
        (swapped_table(pages=range(4), slots=[10, 11, 12, 0]),
         np.array([0, 3]), 10),
    ]
    for t, demand, window in cases:
        plan = plan_swapins(t, demand, window)
        expected = reference_plan_swapins(t, demand, window)
        assert group_pages(plan) == [e.pages.tolist() for e in expected]


def test_zero_fill_runs_split_at_group_leaders_only():
    # page 9 is covered by page 8's window, so the zero-fill pages
    # around it stay one group
    t = swapped_table(n=32, pages=[8, 9], slots=[50, 51])
    plan = plan_swapins(t, np.array([3, 8, 2, 9, 1, 0]), window=4)
    assert group_pages(plan) == [[3], [8, 9], [0, 1, 2]]
    assert plan.read.tolist() == [False, True, False]
    assert plan.slot0.tolist() == [-1, 50, -1]


# ---------------------------------------------------------------------------
# plan_block_reads (adaptive page-in planning)
# ---------------------------------------------------------------------------

def test_block_reads_batch_by_slot_order():
    t = swapped_table(pages=range(10), slots=range(100, 110))
    plan = plan_block_reads(t, np.arange(10), max_batch=4)
    assert group_sizes(plan) == [4, 4, 2]
    # first batch covers the lowest slots
    assert list(group(plan, 0)[1]) == [100, 101, 102, 103]
    assert plan.read.all() and plan.contig.all()
    assert plan.slot0.tolist() == [100, 104, 108]


def test_block_reads_skip_resident_and_unswapped():
    t = swapped_table(n=32, pages=[0, 1], slots=[100, 101])
    t.make_resident(np.array([5]))  # resident page in the list
    plan = plan_block_reads(t, np.array([0, 5, 1, 9]), max_batch=8)
    assert set(plan.pages.tolist()) == {0, 1}


def test_block_reads_empty():
    t = PageTable(1, 8)
    assert len(plan_block_reads(t, np.array([], dtype=np.int64), 8)) == 0
    assert len(plan_block_reads(t, np.array([3]), 8)) == 0


def test_block_reads_bad_batch():
    t = PageTable(1, 8)
    with pytest.raises(ValueError):
        plan_block_reads(t, np.array([0]), 0)


def test_block_reads_slot_order_beats_page_order():
    """Pages recorded out of address order still produce slot-ordered
    (contiguous) reads."""
    t = swapped_table(pages=[7, 3, 5], slots=[102, 100, 101])
    plan = plan_block_reads(t, np.array([7, 3, 5]), max_batch=8)
    assert len(plan) == 1
    # pages ascending within the group, slots aligned with them
    assert group_pages(plan) == [[3, 5, 7]]
    assert list(group(plan, 0)[1]) == [100, 101, 102]
