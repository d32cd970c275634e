"""``expand_phase`` against a committed reference.

:func:`reference_expand_phase` is the expansion as it stood before the
memo gained a page index and a dirty flag: it concatenated every range
and ran ``np.unique`` on each phase to find duplicates.  The rewrite runs
the dedup only when two ranges overlap and must return the same pages
and dirty mask on every input.  Its ``indexed=True`` entry adds the
index and flag that :meth:`PageTable.record_access_runs` stamps with;
those must select exactly the same pages and dirty bits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import PageRange, Phase, expand_phase


def reference_expand_phase(phase):
    """The expansion before the indexed memo: ``(pages, dirty_mask)``."""
    if not phase.ranges:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    pages = np.concatenate([r.pages() for r in phase.ranges])
    dirty = np.concatenate(
        [np.full(r.npages, r.dirty, dtype=bool) for r in phase.ranges]
    )
    uniq, first = np.unique(pages, return_index=True)
    if uniq.size != pages.size:
        order = np.sort(first)
        out_pages = pages[order]
        inv = np.searchsorted(uniq, pages)
        dirty_by_uniq = np.zeros(uniq.size, dtype=bool)
        np.logical_or.at(dirty_by_uniq, inv, dirty)
        out_dirty = dirty_by_uniq[np.searchsorted(uniq, out_pages)]
        pages, dirty = out_pages, out_dirty
    return pages, dirty


@st.composite
def page_ranges(draw, limit=96):
    """One range of at most 40 pages inside ``[0, limit)``."""
    start = draw(st.integers(0, limit - 1))
    stop = draw(st.integers(start + 1, min(limit, start + 40)))
    return PageRange(start, stop, draw(st.booleans()))


@st.composite
def phases(draw, limit=96):
    """Phases of 0-6 ranges: disjoint, adjacent (a range starting where
    another stops) or overlapping, in any order, with mixed dirty flags."""
    ranges = []
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(("any", "adjacent", "overlap")))
        if ranges and shape == "adjacent" and ranges[-1].stop < limit:
            prev = ranges[-1]
            stop = draw(st.integers(prev.stop + 1,
                                    min(limit, prev.stop + 40)))
            ranges.append(PageRange(prev.stop, stop, draw(st.booleans())))
        elif ranges and shape == "overlap":
            prev = ranges[-1]
            start = draw(st.integers(prev.start, prev.stop - 1))
            stop = draw(st.integers(start + 1, min(limit, start + 40)))
            ranges.append(PageRange(start, stop, draw(st.booleans())))
        else:
            ranges.append(draw(page_ranges(limit)))
    if draw(st.booleans()):
        ranges = draw(st.permutations(ranges))
    return Phase(tuple(ranges), cpu_s=0.0)


def assert_expansion_matches(phase):
    ref_pages, ref_dirty = reference_expand_phase(phase)
    pages, dirty = expand_phase(phase)
    np.testing.assert_array_equal(pages, ref_pages)
    np.testing.assert_array_equal(dirty, ref_dirty)
    assert pages.dtype == np.int64 and dirty.dtype == bool

    again, _dirty, index, flag = expand_phase(phase, indexed=True)
    assert again is pages and _dirty is dirty
    state = np.arange(1000, 1096)
    np.testing.assert_array_equal(state[index], state[ref_pages])
    if isinstance(index, slice):
        assert index.step is None
        np.testing.assert_array_equal(
            ref_pages, np.arange(index.start, index.stop))
    else:
        assert index is pages
    if isinstance(flag, np.ndarray):
        assert flag is dirty and flag.any() and not flag.all()
    else:
        assert type(flag) is bool
        assert (ref_dirty == flag).all()
    for arr in (pages, dirty, index, flag):
        if isinstance(arr, np.ndarray):
            assert arr.flags.writeable is False


@settings(max_examples=400, deadline=None)
@given(phases())
def test_expansion_equals_the_reference(phase):
    assert_expansion_matches(phase)


def test_hand_written_phases_match_the_reference():
    cases = [
        # disjoint, ascending: the page array is the index
        (PageRange(0, 3, True), PageRange(10, 12)),
        # adjacent in order: one run, so a slice, with a mixed mask
        (PageRange(0, 4, True), PageRange(4, 9, False)),
        # adjacent out of order: contiguous as a set, but not ascending
        (PageRange(4, 9), PageRange(0, 4)),
        # overlapping: the dedup ORs dirty bits into one run
        (PageRange(0, 4, False), PageRange(2, 6, True)),
        # one range nested in another
        (PageRange(0, 10, True), PageRange(3, 5, False)),
        # overlap found only after sorting by start
        (PageRange(20, 30), PageRange(0, 5), PageRange(25, 40, True)),
        (PageRange(7, 8, True),),
    ]
    for ranges in cases:
        assert_expansion_matches(Phase(ranges, cpu_s=0.0))


def test_index_and_flag_take_the_cheap_form_when_they_can():
    _p, _d, index, flag = expand_phase(
        Phase((PageRange(0, 4, True), PageRange(4, 9, True)), cpu_s=0.0),
        indexed=True)
    assert index == slice(0, 9) and flag is True
    _p, _d, index, flag = expand_phase(
        Phase((PageRange(0, 4), PageRange(2, 9)), cpu_s=0.0), indexed=True)
    assert index == slice(0, 9) and flag is False
    pages, dirty, index, flag = expand_phase(
        Phase((PageRange(0, 4, True), PageRange(4, 9)), cpu_s=0.0),
        indexed=True)
    assert index == slice(0, 9) and flag is dirty
    pages, _d, index, _f = expand_phase(
        Phase((PageRange(4, 9), PageRange(0, 4)), cpu_s=0.0), indexed=True)
    assert index is pages
