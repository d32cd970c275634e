"""``ReplacementPolicy._drop_protected`` against a committed reference.

:func:`reference_drop_protected` is the mask filter: it scatters the
protected pages into a bool mask the size of the address space and
gathers it at the candidates.  Any other filter (a binary search of the
protected pages in the ascending candidates was tried, and measured
slower) must keep and drop the same candidates, keep the companion
array aligned, and hand both arrays back untouched (the same objects)
when no candidate is protected — which is what makes
``GlobalLruPolicy`` pass ``argpartition`` the identical ages array.
The drawn protect sets are random, repeated, empty, outside the
candidates, all candidates, or for another pid.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import PageTable
from repro.mem.replacement import ReplacementPolicy


def reference_drop_protected(table, protect, pages, aligned=None):
    """The mask-based filter (committed copy)."""
    if not protect or table.pid not in protect or pages.size == 0:
        return pages, aligned
    mask = np.zeros(table.num_pages, dtype=bool)
    mask[np.asarray(protect[table.pid], dtype=np.int64)] = True
    hit = mask[pages]
    if not hit.any():
        return pages, aligned
    keep = ~hit
    return pages[keep], (aligned[keep] if aligned is not None else None)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 300))
    resident = np.array(draw(st.lists(st.booleans(), min_size=n,
                                      max_size=n)), dtype=bool)
    pages = np.flatnonzero(resident)  # ascending, as candidates() is
    kind = draw(st.sampled_from(["random", "duplicates", "empty",
                                 "outside", "candidates", "none",
                                 "other pid"]))
    if kind == "empty":
        prot = []
    elif kind == "outside" or (kind == "candidates" and pages.size == 0):
        outside = np.flatnonzero(~resident).tolist()
        prot = draw(st.lists(st.sampled_from(outside), max_size=20)) \
            if outside else []
    elif kind == "candidates":
        prot = draw(st.lists(st.sampled_from(pages.tolist()), min_size=1,
                             max_size=20))
    else:
        prot = draw(st.lists(st.integers(0, n - 1), max_size=40))
        if kind == "duplicates" and prot:
            prot = prot + prot[: len(prot) // 2 + 1]
    protect = {"none": None, "other pid": {2: np.array(prot, dtype=np.int64)}
               }.get(kind, {1: np.array(prot, dtype=np.int64)})
    order = draw(st.sampled_from(["as drawn", "descending"]))
    if protect and order == "descending":
        protect = {p: np.sort(a)[::-1] for p, a in protect.items()}
    with_ages = draw(st.booleans())
    return n, pages, protect, with_ages


@given(cases())
@settings(max_examples=300, deadline=None)
def test_filter_equals_the_mask_reference(case):
    n, pages, protect, with_ages = case
    table = PageTable(1, n)
    ages = np.arange(pages.size, dtype=np.float64) * 0.5 if with_ages \
        else None
    got_p, got_a = ReplacementPolicy._drop_protected(
        table, protect, pages, ages)
    ref_p, ref_a = reference_drop_protected(table, protect, pages, ages)
    np.testing.assert_array_equal(got_p, ref_p)
    assert got_p.dtype == ref_p.dtype
    if ages is None:
        assert got_a is None and ref_a is None
    else:
        np.testing.assert_array_equal(got_a, ref_a)
    # untouched inputs come back as the very same arrays
    assert (got_p is pages) == (ref_p is pages)
    assert (got_a is ages) == (ref_a is ages)


def test_hand_picked_protect_sets():
    table = PageTable(1, 16)
    pages = np.array([1, 3, 4, 8, 15])
    ages = pages * 1.0
    for prot, kept in (([], [1, 3, 4, 8, 15]),
                       ([0, 2, 14], [1, 3, 4, 8, 15]),   # no candidate
                       ([15, 15, 1], [3, 4, 8]),          # duplicates
                       ([8, 3, 4, 1, 15], []),            # every one
                       ([5, 4, 0, 9], [1, 3, 8, 15])):    # mixed
        got_p, got_a = ReplacementPolicy._drop_protected(
            table, {1: np.array(prot, dtype=np.int64)}, pages, ages)
        np.testing.assert_array_equal(got_p, kept)
        np.testing.assert_array_equal(got_a, np.array(kept) * 1.0)
