"""Resident-run probe and stamps against a committed reference.

The resident-run fast path (``JobProcess._resident_run``) probes each
chunk with ``table.present[index].all()`` and stamps a run of chunks
with :meth:`PageTable.record_access_runs` on ``(index, now, flag)``
tuples, where ``index`` and ``flag`` come from
``expand_phase(phase, indexed=True)``: a slice for a one-run phase and a
bool for a uniform dirty mask.  :func:`reference_record_access_runs` is
the stamping as it stood before, on the expanded page array and dirty
mask, and the reference probe is ``present[pages].all()``.  Both must
agree on every probe and leave ``referenced``, ``last_ref``, ``dirty``,
``epoch`` and ``dirty_low_water`` equal.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import PageTable
from repro.workloads import PageRange, Phase, expand_phase
from tests.workloads.test_expand_phase_reference import (
    phases,
    reference_expand_phase,
)

NPAGES = 96


def reference_record_access_runs(table, runs):
    """The stamping before the indexed form, on ``(pages, now, dirty)``."""
    if not runs:
        return
    referenced = table.referenced
    last_ref = table.last_ref
    dirty_arr = table.dirty
    low = table.dirty_low_water
    for pages, now, dirty in runs:
        referenced[pages] = True
        last_ref[pages] = now
        if now < low:
            low = now
        if np.isscalar(dirty) or isinstance(dirty, bool):
            if dirty:
                dirty_arr[pages] = True
        else:
            mask = np.asarray(dirty, dtype=bool)
            if mask.shape != pages.shape:
                raise ValueError("dirty mask shape mismatch")
            dirty_arr[pages[mask]] = True
    table.dirty_low_water = low
    table.epoch += 1


def build_table(absent, dirty, ages, low):
    """A table with every page but ``absent`` resident, ``dirty`` pages
    dirtied, per-page ``ages`` and the writer's low-water mark ``low``."""
    t = PageTable(1, NPAGES)
    resident = np.setdiff1d(np.arange(NPAGES), absent)
    t.make_resident(resident)
    t.record_access(np.intersect1d(dirty, resident), 0.0, dirty=True)
    t.set_last_ref_values(resident, ages[resident])
    t.dirty_low_water = low
    return t


def assert_same_state(table, ref):
    np.testing.assert_array_equal(table.referenced, ref.referenced)
    np.testing.assert_array_equal(table.last_ref, ref.last_ref)
    np.testing.assert_array_equal(table.dirty, ref.dirty)
    assert table.epoch == ref.epoch
    assert table.dirty_low_water == ref.dirty_low_water


def stamp_run(table, ref, chunks, stop):
    """Probe ``chunks`` in order as the run builder does, stamping the
    first ``stop`` of the resident prefix; returns how many were probed
    resident."""
    runs, ref_runs = [], []
    for phase, now in chunks:
        _pages, _dirty, index, flag = expand_phase(phase, indexed=True)
        pages, mask = reference_expand_phase(phase)
        resident = bool(table.present[index].all())
        assert resident == bool(ref.present[pages].all())
        if not resident:
            break
        if pages.size:
            runs.append((index, now, flag))
            ref_runs.append((pages, now, mask))
    # an interrupted run stamps only the chunks started before the stop
    table.record_access_runs(runs[:stop])
    reference_record_access_runs(ref, ref_runs[:stop])
    return len(runs)


stamps = st.floats(0.0, 1e3, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    absent=st.lists(st.integers(0, NPAGES - 1), max_size=4),
    dirty=st.lists(st.integers(0, NPAGES - 1), max_size=30),
    age_seed=st.integers(0, 2**32 - 1),
    low=st.one_of(st.just(np.inf), stamps),
    batches=st.lists(
        st.tuples(st.lists(st.tuples(phases(NPAGES), stamps), min_size=1,
                           max_size=6),
                  st.integers(0, 6)),
        min_size=1, max_size=4),
)
def test_stamps_equal_the_reference(absent, dirty, age_seed, low, batches):
    ages = np.random.default_rng(age_seed).uniform(0.0, 1e3, NPAGES)
    table = build_table(absent, dirty, ages, low)
    ref = build_table(absent, dirty, ages, low)
    # stamps are drawn independently, so they need not rise within a
    # run or across runs, and may fall below the writer's mark
    for chunks, stop in batches:
        stamp_run(table, ref, chunks, stop)
        assert_same_state(table, ref)


def test_contiguous_run_with_a_mixed_mask_stamps_only_its_dirty_pages():
    phase = Phase((PageRange(10, 14, True), PageRange(14, 20, False),
                   PageRange(20, 22, True)), cpu_s=0.0)
    _p, dirty, index, flag = expand_phase(phase, indexed=True)
    assert index == slice(10, 22) and flag is dirty
    ages = np.linspace(0.0, 95.0, NPAGES)
    table = build_table([], [], ages, np.inf)
    ref = build_table([], [], ages, np.inf)
    assert stamp_run(table, ref, [(phase, 7.0)], 1) == 1
    assert_same_state(table, ref)
    assert np.flatnonzero(table.dirty).tolist() == [10, 11, 12, 13, 20, 21]
