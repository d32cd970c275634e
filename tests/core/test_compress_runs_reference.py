"""``compress_runs`` against a committed reference.

:func:`reference_compress_runs` is the flush compression as it stood
before: ``np.unique`` over the batch, then ``np.split`` at every gap.
The rewrite sorts, compares neighbours and cuts with one
``flatnonzero``; it must emit the same :class:`PageRun` list, in the
same order and with plain ``int`` fields, on every input.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PageRun
from repro.core.recorder import compress_runs


def reference_compress_runs(pages):
    """The compression before the rewrite."""
    arr = np.unique(np.asarray(pages, dtype=np.int64))
    if arr.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(arr) != 1) + 1
    return [
        PageRun(int(run[0]), int(run.size))
        for run in np.split(arr, breaks)
    ]


def assert_matches(pages):
    runs = compress_runs(pages)
    assert runs == reference_compress_runs(pages)
    for run in runs:
        assert type(run.base) is int and type(run.count) is int


@st.composite
def flush_batches(draw):
    """Page batches made of a few runs, with duplicates, in any order."""
    pages = []
    for _ in range(draw(st.integers(0, 5))):
        base = draw(st.integers(0, 2000))
        pages.extend(range(base, base + draw(st.integers(1, 40))))
    pages.extend(draw(st.lists(st.integers(0, 2000), max_size=10)))
    if pages and draw(st.booleans()):
        pages.extend(draw(st.lists(st.sampled_from(pages), max_size=10)))
    if draw(st.booleans()):
        pages = draw(st.permutations(pages))
    dtype = draw(st.sampled_from((np.int64, np.int32)))
    return np.array(pages, dtype=dtype)


@settings(max_examples=400, deadline=None)
@given(flush_batches())
def test_runs_equal_the_reference(pages):
    assert_matches(pages)


def test_hand_written_batches_match_the_reference():
    for pages in (
        np.array([], dtype=np.int64),
        np.array([], dtype=np.int32),
        np.array([42]),
        np.array([42, 42, 42]),
        np.array([9, 8, 7, 7, 6, 12, 11], dtype=np.int32),
        np.arange(1000, 1256)[::-1],
        np.array([0, 2, 4, 6]),
        np.array([5, 6, 6, 7, 9, 9, 10]),
    ):
        assert_matches(pages)
