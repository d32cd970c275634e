"""PageTable views: epoch invalidation, caching and scan agreement.

Two layers of coverage:

* a unit suite for the epoch contract — which mutators bump, which
  deliberately do not, cache-hit identity of returned arrays on the fast
  path, and rescans under the scalar oracle
  (``set_fast_path_enabled(False)``);
* a randomized property test interleaving every mutator under both
  settings and asserting, after each step, that every view equals the
  answer recomputed from the raw arrays with ``np.flatnonzero``.
"""

import numpy as np
import pytest

from repro.mem.page_table import PageTable
from repro.sim import fast_path_enabled, set_fast_path_enabled


@pytest.fixture(autouse=True)
def _restore_fast_path():
    yield
    set_fast_path_enabled(True)


def fresh_views(t: PageTable) -> dict:
    """Reference answers recomputed from the raw arrays."""
    return {
        "resident": np.flatnonzero(t.present),
        "dirty_resident": np.flatnonzero(
            t.present & (t.dirty | (t.swap_slot < 0))
        ),
        "touched": np.flatnonzero(t.last_ref > -np.inf),
    }


def assert_views_match(t: PageTable) -> None:
    ref = fresh_views(t)
    np.testing.assert_array_equal(t.resident_pages(), ref["resident"])
    np.testing.assert_array_equal(
        t.dirty_resident_pages(), ref["dirty_resident"]
    )
    np.testing.assert_array_equal(t.touched_pages(), ref["touched"])
    assert t.touched_count() == ref["touched"].size
    res, ages = t.candidates()
    np.testing.assert_array_equal(res, ref["resident"])
    np.testing.assert_array_equal(ages, t.last_ref[ref["resident"]])
    assert t.resident_count == ref["resident"].size


# ---------------------------------------------------------------------------
# epoch contract
# ---------------------------------------------------------------------------
def test_mutators_bump_epoch():
    t = PageTable(pid=1, num_pages=32)
    pages = np.arange(4)
    for mutate in (
        lambda: t.make_resident(pages),
        lambda: t.record_access(pages, 1.0, dirty=True),
        lambda: t.set_last_ref(pages, 2.0),
        lambda: t.assign_slots(pages, np.arange(4) + 100),
        lambda: t.mark_clean(pages),
        lambda: t.release_slots(pages[:2]),
        lambda: t.assign_slots(pages, np.arange(4) + 100),
        lambda: t.evict(pages),
    ):
        before = t.epoch
        mutate()
        assert t.epoch > before, mutate


def test_empty_mutations_do_not_bump():
    t = PageTable(pid=1, num_pages=16)
    empty = np.empty(0, dtype=np.int64)
    before = t.epoch
    t.make_resident(empty)
    t.record_access(empty, 1.0)
    t.set_last_ref(empty, 1.0)
    t.evict(empty)
    t.mark_clean(empty)
    t.assign_slots(empty, empty)
    t.release_slots(empty)
    assert t.epoch == before


def test_clear_referenced_does_not_bump():
    """Reference bits feed no view; clock sweeps must stay free."""
    t = PageTable(pid=1, num_pages=16)
    t.make_resident(np.arange(8))
    before = t.epoch
    t.clear_referenced()
    t.clear_referenced(np.arange(4))
    t.referenced[:2] = True  # direct writes are part of the contract too
    assert t.epoch == before


def test_cache_hit_returns_same_array():
    """On the fast path, between mutations the views are cached
    objects, not rescans."""
    t = PageTable(pid=1, num_pages=64)
    t.make_resident(np.arange(10))
    a = t.resident_pages()
    b = t.resident_pages()
    assert a is b
    res1, ages1 = t.candidates()
    res2, ages2 = t.candidates()
    assert res1 is res2 and ages1 is ages2
    t.set_last_ref(np.arange(5), 7.0)  # bump
    assert t.resident_pages() is not a


def test_stale_cache_recomputed_after_mutation():
    t = PageTable(pid=1, num_pages=64)
    t.make_resident(np.arange(10))
    np.testing.assert_array_equal(t.resident_pages(), np.arange(10))
    t.evict(np.arange(5))
    np.testing.assert_array_equal(t.resident_pages(), np.arange(5, 10))
    assert_views_match(t)


def test_scan_mode_disables_caching():
    """The scalar oracle rescans every view on every call."""
    t = PageTable(pid=1, num_pages=32)
    t.make_resident(np.arange(6))
    set_fast_path_enabled(False)
    assert not fast_path_enabled()
    a = t.resident_pages()
    b = t.resident_pages()
    assert a is not b  # recomputed every call
    np.testing.assert_array_equal(a, b)
    assert t.candidates()[0] is not t.candidates()[0]
    assert t.resident_count == 6  # count_nonzero fallback
    assert_views_match(t)


def test_scan_and_indexed_views_agree():
    t = PageTable(pid=1, num_pages=64)
    t.make_resident(np.arange(20))
    t.assign_slots(np.arange(10), np.arange(10) + 500)
    t.record_access(np.arange(5), 3.0, dirty=True)
    cached = {
        "resident": t.resident_pages().copy(),
        "dirty": t.dirty_resident_pages().copy(),
        "touched": t.touched_pages().copy(),
    }
    set_fast_path_enabled(False)
    np.testing.assert_array_equal(t.resident_pages(), cached["resident"])
    np.testing.assert_array_equal(t.dirty_resident_pages(), cached["dirty"])
    np.testing.assert_array_equal(t.touched_pages(), cached["touched"])


def test_resident_count_tracks_invariants():
    t = PageTable(pid=1, num_pages=32)
    t.make_resident(np.arange(12))
    t.check_invariants()
    t.assign_slots(np.arange(12), np.arange(12) + 50)
    t.evict(np.arange(4))
    t.check_invariants()
    assert t.resident_count == 8


# ---------------------------------------------------------------------------
# randomized interleave property test
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("scan_mode", [False, True])
def test_random_mutator_interleave(seed, scan_mode):
    """Every view matches a fresh flatnonzero recompute after every
    mutation, under a random interleaving of all mutators, on the fast
    path and under the scalar oracle."""
    rng = np.random.default_rng(seed)
    num_pages = 256
    t = PageTable(pid=1, num_pages=num_pages)
    set_fast_path_enabled(not scan_mode)
    next_slot = 0
    now = 0.0

    def sample(mask):
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return np.empty(0, dtype=np.int64)
        k = int(rng.integers(1, idx.size + 1))
        return np.sort(rng.choice(idx, size=k, replace=False))

    for step in range(300):
        now += 1.0
        op = rng.integers(0, 6)
        if op == 0:  # make_resident absent pages
            pages = sample(~t.present)
            t.make_resident(pages)
        elif op == 1:  # evict residents (assign slots to dirty ones first)
            pages = sample(t.present)
            need = pages[t.swap_slot[pages] < 0]
            if need.size:
                t.assign_slots(
                    need, np.arange(next_slot, next_slot + need.size)
                )
                next_slot += need.size
            t.evict(pages)
        elif op == 2:  # record_access on residents
            pages = sample(t.present)
            if pages.size:
                dirty = rng.random(pages.size) < 0.5
                t.record_access(pages, now, dirty)
        elif op == 3:  # fault-time reference stamp
            pages = sample(t.present)
            t.set_last_ref(pages, now)
        elif op == 4:  # background write-back completes
            pages = sample(t.present & t.dirty)
            if pages.size:
                need = pages[t.swap_slot[pages] < 0]
                if need.size:
                    t.assign_slots(
                        need, np.arange(next_slot, next_slot + need.size)
                    )
                    next_slot += need.size
                t.mark_clean(pages)
        else:  # clock sweep (no epoch bump) mixed into the interleave
            t.clear_referenced()
        # read views in random order so caches fill in varied states
        if rng.random() < 0.5:
            t.candidates()
        assert_views_match(t)
        t.check_invariants()
