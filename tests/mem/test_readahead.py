"""Unit tests for fault planning / read-ahead."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import PageTable
from repro.mem.readahead import (
    FaultGroup,
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


def test_dedupe_preserve_order():
    out = dedupe_preserve_order(np.array([3, 1, 3, 2, 1]))
    assert list(out) == [3, 1, 2]


def test_zero_fill_only():
    t = PageTable(1, 16)
    groups = plan_swapins(t, np.array([4, 5, 6]), window=16)
    assert len(groups) == 1
    assert groups[0].is_zero_fill
    assert list(groups[0].pages) == [4, 5, 6]


def test_swapin_groups_by_slot_window():
    # pages 0..7 swapped at contiguous slots 100..107, window 4
    t = swapped_table(pages=range(8), slots=range(100, 108))
    groups = plan_swapins(t, np.arange(8), window=4)
    assert len(groups) == 2
    assert list(groups[0].pages) == [0, 1, 2, 3]
    assert list(groups[1].pages) == [4, 5, 6, 7]
    assert not groups[0].is_zero_fill


def test_readahead_pulls_unrequested_pages():
    """Pages within the slot window come in even if not demanded."""
    t = swapped_table(pages=[0, 1, 2], slots=[100, 101, 102])
    groups = plan_swapins(t, np.array([0]), window=16)
    assert len(groups) == 1
    assert list(groups[0].pages) == [0, 1, 2]


def test_scattered_slots_one_group_each():
    """Pages whose slots are far apart cannot share a read."""
    t = swapped_table(pages=[0, 1, 2], slots=[100, 500, 900])
    groups = plan_swapins(t, np.arange(3), window=16)
    assert len(groups) == 3
    assert all(g.count == 1 for g in groups)


def test_mixed_zero_and_swap_preserves_touch_order():
    t = swapped_table(n=32, pages=[10], slots=[200])
    # touch order: untouched 0, swapped 10, untouched 1
    groups = plan_swapins(t, np.array([0, 10, 1]), window=8)
    kinds = [g.is_zero_fill for g in groups]
    assert kinds == [True, False, True]
    assert list(groups[0].pages) == [0]
    assert list(groups[1].pages) == [10]
    assert list(groups[2].pages) == [1]


def test_groups_are_disjoint_and_cover_demand():
    t = swapped_table(pages=range(20), slots=range(300, 320))
    demand = np.array([5, 0, 17, 3, 11])
    groups = plan_swapins(t, demand, window=6)
    got = np.concatenate([g.pages for g in groups])
    assert len(np.unique(got)) == got.size  # disjoint
    assert set(demand).issubset(set(got))   # covered


def test_demand_with_duplicates_ok():
    t = swapped_table(pages=[0], slots=[100])
    groups = plan_swapins(t, np.array([0, 0, 0]), window=4)
    assert len(groups) == 1


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
    assert plan_swapins(t, np.array([], dtype=np.int64), window=4) == []


def test_slots_match_pages_in_groups():
    t = swapped_table(pages=[4, 5, 6], slots=[100, 101, 102])
    groups = plan_swapins(t, np.array([4]), window=16)
    g = groups[0]
    assert np.array_equal(t.swap_slot[g.pages], g.slots)


# ---------------------------------------------------------------------------
# plan_swapins against a committed reference
# ---------------------------------------------------------------------------

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
    """A table of resident, swapped-out and never-touched pages (swap
    slots sparse, in page order or shuffled; some resident pages keep a
    swap copy) and a demand over its absent pages, duplicates allowed.
    ``kind`` restricts the demand to zero-fill pages, swapped pages or
    both."""
    n = draw(st.integers(1, 120))
    state = np.asarray(draw(st.lists(st.sampled_from("rsz"), min_size=n,
                                     max_size=n)))
    slotted = np.flatnonzero(state != "z")
    spread = draw(st.sampled_from([1, 3]))  # dense or sparse swap slots
    slots = np.sort(np.asarray(draw(st.lists(
        st.integers(0, spread * n), min_size=slotted.size,
        max_size=slotted.size, unique=True)), dtype=np.int64))
    if draw(st.booleans()):
        slots = slots[np.asarray(draw(st.permutations(range(slots.size))),
                                 dtype=np.int64)]
    t = PageTable(1, n)
    if slotted.size:
        t.make_resident(slotted)
        t.assign_slots(slotted, slots)
        t.evict(np.flatnonzero(state == "s"))
    kind = draw(st.sampled_from(["zero", "swap", "mixed"]))
    pool = {"zero": state == "z", "swap": state == "s",
            "mixed": state != "r"}[kind]
    pool = np.flatnonzero(pool)
    demand = np.asarray(draw(st.lists(st.sampled_from(pool.tolist()),
                                      max_size=2 * n))
                        if pool.size else [], dtype=np.int64)
    window = draw(st.integers(1, 20))
    return t, demand, window


@given(plan_inputs())
@settings(max_examples=300, deadline=None)
def test_plan_equals_the_reference(inputs):
    t, demand, window = inputs
    got = plan_swapins(t, demand, window)
    expected = reference_plan_swapins(t, demand, window)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.pages.dtype == e.pages.dtype
        np.testing.assert_array_equal(g.pages, e.pages)
        assert g.is_zero_fill == e.is_zero_fill
        if not e.is_zero_fill:
            np.testing.assert_array_equal(g.slots, e.slots)
        assert (g.contig, g.slot0) == (e.contig, e.slot0)


def test_window_overlapping_an_earlier_group_drops_its_pages():
    # slots 100..107 in page order; demand 4 first takes slots 104..107,
    # then demand 1's window [101, 109) keeps only 101..103
    t = swapped_table(pages=range(8), slots=range(100, 108))
    groups = plan_swapins(t, np.array([4, 1, 0]), window=8)
    assert [list(g.pages) for g in groups] == [[4, 5, 6, 7], [1, 2, 3], [0]]
    assert [(g.contig, g.slot0) for g in groups] == \
        [(True, 104), (True, 101), (True, 100)]


def test_zero_fill_runs_split_at_group_leaders_only():
    # page 9 is covered by page 8's window, so the zero-fill pages
    # around it stay one group
    t = swapped_table(n=32, pages=[8, 9], slots=[50, 51])
    groups = plan_swapins(t, np.array([3, 8, 2, 9, 1, 0]), window=4)
    assert [list(g.pages) for g in groups] == [[3], [8, 9], [0, 1, 2]]


# ---------------------------------------------------------------------------
# plan_block_reads (adaptive page-in planning)
# ---------------------------------------------------------------------------

def test_block_reads_batch_by_slot_order():
    t = swapped_table(pages=range(10), slots=range(100, 110))
    groups = plan_block_reads(t, np.arange(10), max_batch=4)
    assert [g.count for g in groups] == [4, 4, 2]
    # first batch covers the lowest slots
    assert list(groups[0].slots) == [100, 101, 102, 103]


def test_block_reads_skip_resident_and_unswapped():
    t = swapped_table(n=32, pages=[0, 1], slots=[100, 101])
    t.make_resident(np.array([5]))  # resident page in the list
    groups = plan_block_reads(t, np.array([0, 5, 1, 9]), max_batch=8)
    got = np.concatenate([g.pages for g in groups])
    assert set(got) == {0, 1}


def test_block_reads_empty():
    t = PageTable(1, 8)
    assert plan_block_reads(t, np.array([], dtype=np.int64), 8) == []
    assert plan_block_reads(t, np.array([3]), 8) == []


def test_block_reads_bad_batch():
    t = PageTable(1, 8)
    with pytest.raises(ValueError):
        plan_block_reads(t, np.array([0]), 0)


def test_block_reads_slot_order_beats_page_order():
    """Pages recorded out of address order still produce slot-ordered
    (contiguous) reads."""
    t = swapped_table(pages=[7, 3, 5], slots=[102, 100, 101])
    groups = plan_block_reads(t, np.array([7, 3, 5]), max_batch=8)
    assert len(groups) == 1
    assert list(groups[0].slots) == [100, 101, 102]
