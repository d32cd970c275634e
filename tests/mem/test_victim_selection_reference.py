"""Global-LRU victim selection against a committed reference.

:func:`reference_select_victims` is the selector as it stood before the
ages-only rewrite: it concatenated a pid, a page and an age array over
every candidate and argpartitioned the ages.  The rewrite must return
the same batches — same pid, same pages, same order — on every input.

Ties at the cut-off ``last_ref`` are the norm here (ages come from a
handful of stamps), because ``np.argpartition`` decides which tied pages
are evicted: its choice depends on the exact array it is handed, so the
rewrite must hand it the same array.  A variant that only reorders that
array (say, tables visited in reverse) fails this test.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import GangConfig, run_experiment
from repro.mem import PageTable
from repro.mem.replacement import GlobalLruPolicy, VictimBatch


def _reference_drop_protected(table, protect, pages, aligned):
    if not protect or table.pid not in protect or pages.size == 0:
        return pages, aligned
    mask = np.zeros(table.num_pages, dtype=bool)
    mask[np.asarray(protect[table.pid], dtype=np.int64)] = True
    keep = ~mask[pages]
    return pages[keep], aligned[keep]


def reference_select_victims(tables, count, cluster, protect=None):
    """The reference pick: the full pid/page/age concatenation."""
    if count <= 0:
        return []
    pids: list[np.ndarray] = []
    pages: list[np.ndarray] = []
    ages: list[np.ndarray] = []
    for pid, table in tables.items():
        res, age = table.candidates()
        res, age = _reference_drop_protected(table, protect, res, age)
        if res.size == 0:
            continue
        pids.append(np.full(res.size, pid, dtype=np.int64))
        pages.append(res)
        ages.append(age)
    if not pages:
        return []
    if len(pages) == 1:
        all_pids, all_pages, all_ages = pids[0], pages[0], ages[0]
    else:
        all_pids = np.concatenate(pids)
        all_pages = np.concatenate(pages)
        all_ages = np.concatenate(ages)
    take = min(count, all_pages.size)
    idx = np.argpartition(all_ages, take - 1)[:take] if take < all_pages.size \
        else np.arange(all_pages.size)
    idx = idx[np.argsort(all_ages[idx], kind="stable")]
    batches: list[VictimBatch] = []
    sel_pids = all_pids[idx]
    sel_pages = all_pages[idx]
    n = idx.size
    if len(pages) == 1:
        bounds = [0, n]
    else:
        change = np.flatnonzero(sel_pids[1:] != sel_pids[:-1]) + 1
        bounds = [0, *change.tolist(), n]
    for a, b in zip(bounds[:-1], bounds[1:]):
        pid = int(sel_pids[a])
        n_run = b - a
        full = n_run - n_run % cluster
        if full:
            block = np.sort(
                sel_pages[a:a + full].reshape(-1, cluster), axis=1
            )
            for row in block:
                batches.append(VictimBatch(pid, row))
        if full < n_run:
            batches.append(VictimBatch(pid, np.sort(sel_pages[a + full:b])))
    return batches


def assert_same_batches(got, expected):
    assert [b.pid for b in got] == [b.pid for b in expected]
    for g, e in zip(got, expected):
        assert type(g.pid) is int
        assert g.pages.dtype == e.pages.dtype
        np.testing.assert_array_equal(g.pages, e.pages)


# ---------------------------------------------------------------------------
# differential: random nodes with tied ages
# ---------------------------------------------------------------------------

STAMPS = (0.0, 1.0, 2.0, 3.0)


@st.composite
def nodes(draw):
    """1-3 page tables (pids in drawn order) and a protect map."""
    pids = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3,
                         unique=True))
    tables = {}
    protect = {}
    for pid in pids:
        n = draw(st.integers(1, 150))
        t = PageTable(pid, n)
        resident = np.flatnonzero(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        if resident.size:
            t.make_resident(resident)
            t.set_last_ref_values(resident, np.asarray(draw(st.lists(
                st.sampled_from(STAMPS), min_size=resident.size,
                max_size=resident.size))))
        tables[pid] = t
        if draw(st.booleans()):
            protect[pid] = np.asarray(draw(st.lists(
                st.integers(0, n - 1), max_size=n)), dtype=np.int64)
    if draw(st.booleans()):
        protect[99] = np.array([0])  # a pid with no table
    total = sum(t.resident_count for t in tables.values())
    count = draw(st.integers(1, total + 4))
    cluster = draw(st.integers(1, 64))
    return tables, count, cluster, (protect or draw(st.sampled_from([None, {}])))


@given(st.lists(nodes(), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_every_pick_equals_the_reference(calls):
    # one policy serves every call, as on a node: its reused age buffer
    # must not leak one call's ages into the next
    policy = GlobalLruPolicy()
    for tables, count, cluster, protect in calls:
        assert_same_batches(
            policy.select_victims(tables, count, cluster, protect),
            reference_select_victims(tables, count, cluster, protect),
        )


def test_ties_are_cut_inside_the_table_order():
    # three tables, every age tied: which pages go, and in what order,
    # is argpartition's choice on the table-ordered age array
    tables = {}
    for pid in (3, 1, 2):
        t = PageTable(pid, 40)
        t.make_resident(np.arange(40))
        t.set_last_ref_values(np.arange(40), np.zeros(40))
        tables[pid] = t
    for count in (1, 17, 60, 119, 120, 200):
        assert_same_batches(
            GlobalLruPolicy().select_victims(tables, count, 8),
            reference_select_victims(tables, count, 8),
        )


def test_every_pick_of_an_lru_run_equals_the_reference():
    calls = []
    original = GlobalLruPolicy.select_victims

    def checked(self, tables, count, cluster, protect=None):
        expected = reference_select_victims(tables, count, cluster, protect)
        got = original(self, tables, count, cluster, protect)
        assert_same_batches(got, expected)
        calls.append(len(tables))
        return got

    with patch.object(GlobalLruPolicy, "select_victims", checked):
        run_experiment(GangConfig("LU", "C", nprocs=4, policy="lru",
                                  seed=1, scale=0.1))
    assert len(calls) > 20
    assert max(calls) > 1  # the multi-table mapping was exercised
