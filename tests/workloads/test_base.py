"""Unit + property tests for the phase/trace model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import PageRange, Phase, chunk_ranges, expand_phase


def test_page_range_validation():
    with pytest.raises(ValueError):
        PageRange(-1, 5)
    with pytest.raises(ValueError):
        PageRange(5, 5)
    with pytest.raises(ValueError):
        PageRange(5, 3)


def test_page_range_pages():
    r = PageRange(3, 6, dirty=True)
    assert r.npages == 3
    assert list(r.pages()) == [3, 4, 5]


def test_phase_validation():
    with pytest.raises(ValueError):
        Phase((PageRange(0, 1),), cpu_s=-1.0)
    with pytest.raises(ValueError):
        Phase((PageRange(0, 1),), cpu_s=1.0, comm_s=-1.0)


def test_phase_npages():
    p = Phase((PageRange(0, 10), PageRange(20, 25)), cpu_s=1.0)
    assert p.npages == 15


def test_expand_simple():
    p = Phase((PageRange(0, 3, dirty=True), PageRange(10, 12)), cpu_s=0.0)
    pages, dirty = expand_phase(p)
    assert list(pages) == [0, 1, 2, 10, 11]
    assert list(dirty) == [True, True, True, False, False]


def test_expand_overlap_ors_dirty():
    p = Phase((PageRange(0, 4, dirty=False), PageRange(2, 6, dirty=True)),
              cpu_s=0.0)
    pages, dirty = expand_phase(p)
    assert list(pages) == [0, 1, 2, 3, 4, 5]
    assert list(dirty) == [False, False, True, True, True, True]


def test_expand_empty():
    pages, dirty = expand_phase(Phase((), cpu_s=0.0))
    assert pages.size == 0 and dirty.size == 0


def test_expand_empty_is_cached_and_read_only():
    empty = Phase((), cpu_s=0.0)
    pages, dirty, index, flag = expand_phase(empty, indexed=True)
    assert pages.dtype == np.int64 and dirty.dtype == bool
    assert pages.flags.writeable is False
    assert dirty.flags.writeable is False
    assert index == slice(0, 0) and flag is False
    again = expand_phase(Phase((), cpu_s=1.0, label="other"), indexed=True)
    assert again[0] is pages and again[1] is dirty


def test_chunk_ranges_respects_max_pages():
    phases = chunk_ranges([PageRange(0, 100, dirty=True)], max_pages=30,
                          cpu_s=10.0)
    assert all(p.npages <= 30 for p in phases)
    total = sum(p.npages for p in phases)
    assert total == 100


def test_chunk_ranges_distributes_cpu():
    phases = chunk_ranges([PageRange(0, 100)], max_pages=50, cpu_s=10.0)
    assert sum(p.cpu_s for p in phases) == pytest.approx(10.0)


def test_chunk_ranges_barrier_only_on_last():
    phases = chunk_ranges([PageRange(0, 100)], max_pages=30, cpu_s=1.0,
                          barrier=True, comm_s=0.5)
    assert [p.barrier for p in phases] == [False] * (len(phases) - 1) + [True]
    assert phases[-1].comm_s == 0.5
    assert all(p.comm_s == 0.0 for p in phases[:-1])


def test_chunk_ranges_bad_max():
    with pytest.raises(ValueError):
        chunk_ranges([PageRange(0, 10)], max_pages=0, cpu_s=1.0)


def test_chunk_preserves_touch_order():
    phases = chunk_ranges(
        [PageRange(50, 60), PageRange(0, 10)], max_pages=8, cpu_s=1.0
    )
    seq = np.concatenate([expand_phase(p)[0] for p in phases])
    # the 50..59 range comes before 0..9 in touch order
    assert list(seq[:10]) == list(range(50, 60))


@given(
    st.lists(
        st.tuples(st.integers(0, 400), st.integers(1, 80), st.booleans()),
        min_size=1, max_size=8,
    ),
    st.integers(1, 64),
)
@settings(max_examples=60, deadline=None)
def test_property_chunking_preserves_pages_and_cpu(raw, max_pages):
    """Chunking never loses/duplicates pages within a range and CPU sums."""
    ranges = [PageRange(s, s + ln, d) for s, ln, d in raw]
    phases = chunk_ranges(ranges, max_pages=max_pages, cpu_s=7.0)
    assert all(p.npages <= max_pages for p in phases)
    assert sum(p.npages for p in phases) == sum(r.npages for r in ranges)
    assert sum(p.cpu_s for p in phases) == pytest.approx(7.0)
    # dirty page-count is conserved (pieces keep their source's flag)
    dirty_in = sum(r.npages for r in ranges if r.dirty)
    dirty_out = sum(
        piece.npages for p in phases for piece in p.ranges if piece.dirty
    )
    assert dirty_out == dirty_in
