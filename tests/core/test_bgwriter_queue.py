"""The background writer's oldest-dirty queue against the full scan.

Each burst of the §3.4 writer must be exactly the reference pick
:func:`scan_pick` — the ``batch_pages`` dirty-resident pages with the
smallest ``(last_ref, page)`` keys, in page order.  The writer takes it
from :class:`~repro.core.background.OldestDirtyQueue` and refills the
queue from the scan only when ``PageTable.dirty_low_water`` cannot prove
the queue's pick exact.  The differential test checks every burst of
randomly drawn runs, fault plans included; the unit tests drive each
route by which a page can join the dirty set with an old key.

The queue and the burst write also trust ``PageTable.epoch``: a window
validated at one epoch serves picks while the epoch holds, and a burst
that finds the epoch unchanged skips its re-validation.  The last unit
tests land each kind of foreign mutation while a burst is in flight.
"""

from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BackgroundWriter, background
from repro.core.background import OldestDirtyQueue
from repro.disk import Disk, DiskParams
from repro.disk.device import PRIO_BACKGROUND
from repro.experiments import GangConfig, run_experiment
from repro.faults import FaultRates
from repro.faults.errors import DiskFailure
from repro.mem import MemoryParams, PageTable, VirtualMemoryManager
from repro.mem.frames import OutOfFramesError
from repro.mem.replacement import VictimBatch
from repro.sim import Environment


def scan_pick(table, n):
    """The reference burst: a full scan and a stable sort by ``last_ref``."""
    dirty = np.flatnonzero(table.present & (table.dirty | (table.swap_slot < 0)))
    order = np.argsort(table.last_ref[dirty], kind="stable")
    return np.sort(dirty[order][:n])


def writer_pick(queue, n):
    """The burst the writer takes: the queue's pick, else refill and pick."""
    burst = queue.pick(n)
    if burst is None:
        queue.refill()
        burst = queue.pick(n)
    return burst


@contextmanager
def checked_writer():
    """Patch the writer so every pick is compared with :func:`scan_pick`,
    and every burst whose re-validation the epoch skipped with the pages
    the full re-validation would write.

    Yields a dict counting picks the queue proved exact (``"hits"``),
    refills and bursts written without re-validation (``"skipped"``).
    """
    counts = {"hits": 0, "refills": 0, "skipped": 0}
    burst_to_write = VirtualMemoryManager._burst_to_write

    def checked_burst_to_write(vmm, table, batch, epoch):
        got = burst_to_write(vmm, table, batch, epoch)
        if table.epoch == epoch:
            counts["skipped"] += 1
            full = burst_to_write(vmm, table, batch, None)
            np.testing.assert_array_equal(got[0], full[0])
            np.testing.assert_array_equal(got[1], full[1])
        return got

    class CheckedQueue(OldestDirtyQueue):
        __slots__ = ()

        def refill(self):
            counts["refills"] += 1
            super().refill()

        def pick(self, n):
            expected = scan_pick(self.table, n)
            got = super().pick(n)
            if got is not None:
                counts["hits"] += 1
                np.testing.assert_array_equal(got, expected)
            return got

    with patch.object(background, "OldestDirtyQueue", CheckedQueue), \
            patch.object(VirtualMemoryManager, "_burst_to_write",
                         checked_burst_to_write):
        yield counts


# ---------------------------------------------------------------------------
# differential: every burst of a random run equals the full-scan pick
# ---------------------------------------------------------------------------

BG_POLICIES = ("bg", "so/bg", "so/ao/bg", "ao/ai/bg", "so/ao/ai/bg")

RUNS = st.fixed_dictionaries(
    {
        "cell": st.sampled_from([("LU", "B", 1), ("LU", "C", 2),
                                 ("CG", "B", 1), ("MG", "B", 2)]),
        "policy": st.sampled_from(BG_POLICIES),
        "scale": st.sampled_from([0.03, 0.05, 0.08]),
        "quantum_s": st.sampled_from([30.0, 60.0, 300.0]),
        "seed": st.integers(0, 10_000),
        "disk_error_rate": st.sampled_from([0.0, 0.05, 0.3, 0.45]),
        "record_loss_rate": st.sampled_from([0.0, 0.3]),
    }
)


def build(params) -> GangConfig:
    benchmark, klass, nprocs = params["cell"]
    return GangConfig(
        benchmark, klass, nprocs=nprocs, policy=params["policy"],
        scale=params["scale"], quantum_s=params["quantum_s"],
        seed=params["seed"],
        faults=FaultRates(disk_error_rate=params["disk_error_rate"],
                          record_loss_rate=params["record_loss_rate"]),
    )


def run_checked(cfg):
    with checked_writer() as counts:
        try:
            run_experiment(cfg)
        except (DiskFailure, OutOfFramesError):
            # Heavy disk errors can end a run early: a foreground write
            # fails for good, or reclaim finds nothing evictable.  The
            # bursts written until then were all checked.
            pass
    return counts


@given(RUNS)
@settings(max_examples=20, deadline=None)
def test_every_burst_equals_the_full_scan(params):
    run_checked(build(params))


@pytest.mark.parametrize("policy", ["bg", "so/ao/ai/bg"])
def test_queue_serves_almost_every_burst(policy):
    # LU.C on two nodes: thousands of bursts, a few dozen refills
    counts = run_checked(GangConfig("LU", "C", nprocs=2, policy=policy,
                                    scale=0.1, seed=1))
    assert counts["hits"] > 1000
    assert counts["refills"] * 20 < counts["hits"]
    # the epoch spares nearly every burst its re-validation
    assert counts["skipped"] * 10 > counts["hits"] * 9


def test_fault_injected_runs_match_the_scan():
    # retried disk errors and lost flush records; at scale 0.1 seed 1 one
    # background write fails for good and DiskFailure stops the writer
    writer_failures = 0
    for scale in (0.05, 0.1):
        for seed in (1, 2, 3, 4):
            cfg = GangConfig("LU", "C", nprocs=2, policy="so/ao/ai/bg",
                             scale=scale, seed=seed,
                             faults=FaultRates(disk_error_rate=0.1,
                                               record_loss_rate=0.2))
            with checked_writer() as counts:
                res = run_experiment(cfg)
            assert counts["hits"] > 0
            writer_failures += res.fault_summary["bg_write_failures"]
    assert writer_failures > 0


# ---------------------------------------------------------------------------
# the low-water contract, route by route
# ---------------------------------------------------------------------------

def make_table():
    """16 pages: 0-7 dirty-resident (keys 10..17), 8-11 clean with swap
    copies (keys 1..4), 12-15 never touched."""
    t = PageTable(1, 16)
    t.make_resident(np.arange(12))
    t.record_access(np.arange(8), 0.0, dirty=True)
    t.set_last_ref_values(np.arange(12),
                          np.r_[np.arange(10.0, 18.0), np.arange(1.0, 5.0)])
    t.assign_slots(np.arange(8, 12), np.arange(8, 12))
    return t


def test_fresh_queue_picks_the_oldest_dirty_pages():
    t = make_table()
    q = OldestDirtyQueue(t)
    assert t.dirty_low_water == np.inf
    np.testing.assert_array_equal(q.pick(3), [0, 1, 2])
    np.testing.assert_array_equal(q.pick(3), scan_pick(t, 3))


def test_queue_skips_cleaned_pages_without_a_refill():
    t = make_table()
    q = OldestDirtyQueue(t)
    t.assign_slots(np.arange(3), np.arange(20, 23))
    t.mark_clean(np.arange(3))
    assert t.dirty_low_water == np.inf
    np.testing.assert_array_equal(q.pick(3), [3, 4, 5])


def test_newer_stamps_keep_the_queue_exact():
    t = make_table()
    q = OldestDirtyQueue(t)
    t.record_access(np.array([5]), 100.0, dirty=True)  # page 5 moves last
    assert t.dirty_low_water == 100.0
    np.testing.assert_array_equal(q.pick(6), [0, 1, 2, 3, 4, 6])
    np.testing.assert_array_equal(q.pick(6), scan_pick(t, 6))


def test_queue_running_dry_refills_once_pages_were_dirtied():
    t = make_table()
    q = OldestDirtyQueue(t)
    t.record_access(np.array([9]), 100.0, dirty=True)  # clean -> dirty
    assert q.pick(16) is None  # page 9 is not queued
    np.testing.assert_array_equal(writer_pick(q, 16), scan_pick(t, 16))


def test_record_access_runs_lowers_the_mark_to_its_oldest_stamp():
    t = make_table()
    q = OldestDirtyQueue(t)
    # a one-page slice, dirty, then a page array, clean: the fast path's
    # two index forms
    t.record_access_runs([(slice(9, 10), 50.0, True),
                          (np.array([10]), 40.0, False)])
    assert t.dirty_low_water == 40.0
    assert q.pick(16) is None  # page 9 joined the dirty set unqueued
    np.testing.assert_array_equal(writer_pick(q, 16), scan_pick(t, 16))


def test_set_last_ref_into_the_past_lowers_the_mark():
    t = make_table()
    q = OldestDirtyQueue(t)
    t.set_last_ref(np.array([7]), 0.5)
    assert q.pick(2) is None
    np.testing.assert_array_equal(writer_pick(q, 2), [0, 7])


def test_release_slots_on_a_resident_page_lowers_the_mark():
    t = make_table()
    q = OldestDirtyQueue(t)
    t.release_slots(np.array([8]))  # clean page, key 1, is dirty-resident again
    assert t.dirty_low_water == 1.0
    assert q.pick(3) is None
    np.testing.assert_array_equal(writer_pick(q, 3), [0, 1, 8])
    np.testing.assert_array_equal(writer_pick(q, 3), scan_pick(t, 3))


def test_release_slots_on_a_swapped_page_leaves_the_mark():
    t = make_table()
    OldestDirtyQueue(t)
    t.evict(np.array([8]))
    t.release_slots(np.array([8]))
    assert t.dirty_low_water == np.inf


def test_slotless_make_resident_lowers_the_mark():
    t = make_table()
    q = OldestDirtyQueue(t)
    t.make_resident(np.array([12]))  # never touched: last_ref is -inf
    assert t.dirty_low_water == -np.inf
    assert q.pick(3) is None
    np.testing.assert_array_equal(writer_pick(q, 3), [0, 1, 12])


def test_make_resident_with_a_swap_copy_leaves_the_mark():
    t = make_table()
    OldestDirtyQueue(t)
    t.evict(np.array([9]))
    t.make_resident(np.array([9]))  # paged back in: clean, slot kept
    assert t.dirty_low_water == np.inf


def test_set_last_ref_values_with_past_stamps_lowers_the_mark():
    t = make_table()
    q = OldestDirtyQueue(t)
    t.set_last_ref_values(np.array([6, 7]), np.array([0.5, 30.0]))
    assert t.dirty_low_water == 0.5
    assert q.pick(3) is None
    np.testing.assert_array_equal(writer_pick(q, 3), [0, 1, 6])
    np.testing.assert_array_equal(writer_pick(q, 3), scan_pick(t, 3))


def test_equal_key_outside_the_queue_forces_a_refill():
    # ties break by page number, so a page outside the queue carrying the
    # pick's largest key may belong in the burst: the mark is strict
    t = make_table()
    q = OldestDirtyQueue(t)
    t.record_access(np.array([8]), 12.0, dirty=True)
    assert q.pick(3) is None
    np.testing.assert_array_equal(writer_pick(q, 3), scan_pick(t, 3))


def make_node(total_frames=256):
    env = Environment()
    disk = Disk(env, DiskParams())
    vmm = VirtualMemoryManager(env, MemoryParams(total_frames=total_frames),
                               disk)
    return env, disk, vmm


def drive(env, gen):
    out = {}

    def wrapper():
        out["value"] = yield from gen
    env.run(until=env.process(wrapper()))
    return out["value"]


def dirty_pages(env, vmm, pid, pages):
    drive(env, vmm.touch(pid, pages, dirty=True))


def write_burst(env, vmm, queue, burst, during=None):
    """Write ``burst`` as the writer does, calling ``during(table)`` once
    the writer waits on the disk or the lock.  Returns ``(written,
    epoch)`` and consumes the burst if the epoch proof held."""
    table = queue.table
    out = {}

    def writer():
        out["result"] = yield from vmm.clean_batch(
            VictimBatch(table.pid, burst), PRIO_BACKGROUND, table.epoch)
    proc = env.process(writer())
    if during is not None:
        env.run(until=env.now + 1e-4)  # well inside one disk transfer
        during(table)
    env.run(until=proc)
    written, epoch = out["result"]
    if epoch is not None:
        queue.consume(epoch)
    return written, epoch


def test_demanded_page_dropped_from_a_burst_is_picked_again_first():
    env, disk, vmm = make_node()
    t = vmm.register_process(1, 64)
    dirty_pages(env, vmm, 1, np.arange(32))
    q = OldestDirtyQueue(t)
    burst = q.pick(8)
    np.testing.assert_array_equal(burst, np.arange(8))
    fault = (1, np.array([3]))
    vmm._add_demand(fault)  # an in-flight fault wants page 3
    written, epoch = write_burst(env, vmm, q, burst)
    assert written == 7
    assert epoch is None  # not the whole burst: the queue keeps it
    assert t.dirty[3] and not t.dirty[[0, 1, 2, 4, 5, 6, 7]].any()
    vmm._remove_demand(fault)
    burst = q.pick(8)  # no refill needed
    np.testing.assert_array_equal(burst, [3, 8, 9, 10, 11, 12, 13, 14])
    np.testing.assert_array_equal(burst, scan_pick(t, 8))


# ---------------------------------------------------------------------------
# the epoch proof: a foreign mutation while a burst write is in flight
# ---------------------------------------------------------------------------

def make_queued_node():
    """32 dirty pages with distinct keys 0..31, every one in the queue."""
    env, disk, vmm = make_node()
    t = vmm.register_process(1, 64)
    dirty_pages(env, vmm, 1, np.arange(32))
    t.set_last_ref_values(np.arange(32), np.arange(32.0))
    return env, disk, vmm, t, OldestDirtyQueue(t)


def test_burst_with_no_foreign_mutation_is_consumed():
    env, disk, vmm, t, q = make_queued_node()
    written, epoch = write_burst(env, vmm, q, q.pick(8))
    assert written == 8 and epoch == t.epoch
    for start in (8, 16):
        burst = q.pick(8)  # served from the validated window
        np.testing.assert_array_equal(burst, np.arange(start, start + 8))
        np.testing.assert_array_equal(burst, scan_pick(t, 8))
        write_burst(env, vmm, q, burst)
    vmm.check_invariants()


def test_restamp_of_a_validated_unpicked_page_is_not_trusted():
    env, disk, vmm, t, q = make_queued_node()
    burst = q.pick(8)

    def restamp(table):
        assert disk.busy  # the burst is on the disk
        table.record_access(np.array([9]), 100.0)  # page 9 moves last
    written, epoch = write_burst(env, vmm, q, burst, restamp)
    assert written == 8 and epoch is None
    burst = q.pick(8)
    np.testing.assert_array_equal(burst, [8, 10, 11, 12, 13, 14, 15, 16])
    np.testing.assert_array_equal(burst, scan_pick(t, 8))


def test_reclaim_evicting_queued_pages_is_not_trusted():
    env, disk, vmm, t, q = make_queued_node()
    burst = q.pick(8)
    # a reclaim holds the eviction lock and evicts page 2 of the burst
    # and page 9 behind it while the burst waits for the lock
    env.process(vmm.evict_batch(VictimBatch(1, np.array([2, 9]))))

    def reclaim_running(table):
        assert vmm._evict_lock.in_use and table.present[[2, 9]].all()
    written, epoch = write_burst(env, vmm, q, burst, reclaim_running)
    assert not t.present[[2, 9]].any()
    assert written == 7 and epoch is None  # page 2 is gone: not written
    assert disk.total_pages["write"] == 2 + 7
    burst = q.pick(8)
    np.testing.assert_array_equal(burst, [8, 10, 11, 12, 13, 14, 15, 16])
    np.testing.assert_array_equal(burst, scan_pick(t, 8))
    vmm.check_invariants()


def test_release_slots_on_a_burst_page_is_not_trusted():
    env, disk, vmm, t, q = make_queued_node()
    burst = q.pick(8)

    def release(table):
        assert disk.busy
        # page 3 got its slot from the burst; without it the page is
        # dirty-resident again once the write marks it clean
        vmm.swap.free(table.release_slots(np.array([3])))
    written, epoch = write_burst(env, vmm, q, burst, release)
    assert written == 8 and epoch is None
    assert t.swap_slot[3] < 0
    burst = writer_pick(q, 8)
    np.testing.assert_array_equal(burst, [3, 8, 9, 10, 11, 12, 13, 14])
    np.testing.assert_array_equal(burst, scan_pick(t, 8))
    vmm.check_invariants()


def test_writer_counts_only_pages_written():
    env, disk, vmm = make_node()
    vmm.register_process(1, 64)
    dirty_pages(env, vmm, 1, np.arange(16))
    fault = (1, np.array([2, 5]))
    vmm._add_demand(fault)  # a fault wants them while the first burst runs

    def fault_done():
        yield env.timeout(1e-4)
        vmm._remove_demand(fault)
    env.process(fault_done())
    bw = BackgroundWriter(vmm, batch_pages=8, poll_s=0.5)
    bw.start(1)
    env.run(until=env.now + 5.0)
    bw.stop()
    # bursts: 0-7 less the demanded 2 and 5; then 2, 5, 8-13; then 14-15
    assert bw.bursts == 3
    assert bw.pages_written == 16 == disk.total_pages["write"]
    vmm.check_invariants()


def test_stop_during_a_burst_write_counts_nothing_and_keeps_pages_dirty():
    env, disk, vmm = make_node()
    t = vmm.register_process(1, 64)
    dirty_pages(env, vmm, 1, np.arange(16))
    bw = BackgroundWriter(vmm, batch_pages=8, poll_s=0.5)
    bw.start(1)
    env.run(until=env.now + 1e-4)  # first burst is on the disk
    assert disk.total_requests == 0 and disk.busy
    bw.stop()
    env.run(until=env.now + 5.0)
    assert disk.total_pages["write"] == 8  # the device finished it
    assert bw.pages_written == 0 and bw.bursts == 0
    assert t.dirty[:16].all()  # never marked clean
    # the next activation rebuilds its queue and writes everything
    bw.start(1)
    env.run(until=env.now + 5.0)
    bw.stop()
    assert bw.pages_written == 16
    assert not t.dirty[:16].any()
    vmm.check_invariants()


def run_steps(env, until, max_steps=10_000):
    """``env.run(until=until)`` that fails instead of spinning forever at
    one virtual instant."""
    for _ in range(max_steps):
        if env.peek() > until:
            return
        env.step()
    raise AssertionError(f"still at t={env.now} after {max_steps} events")


def test_writer_backs_off_while_a_fault_demands_every_dirty_page():
    # Regression: the writer re-picked the demanded pages at once, so
    # virtual time never advanced and the fault holding them never ended.
    env, disk, vmm = make_node()
    vmm.register_process(1, 64)
    dirty_pages(env, vmm, 1, np.arange(8))
    fault = (1, np.arange(8))
    vmm._add_demand(fault)
    t_fault_done = env.now + 2.0

    def fault_done():
        yield env.timeout_at(t_fault_done)
        vmm._remove_demand(fault)
    env.process(fault_done())
    bw = BackgroundWriter(vmm, batch_pages=8, poll_s=0.5)
    bw.start(1)
    run_steps(env, env.now + 5.0)
    bw.stop()
    assert bw.bursts == 1 and bw.pages_written == 8
    assert disk.total_pages["write"] == 8
    vmm.check_invariants()


def test_zero_filling_job_under_bg_completes():
    # Shrunk from the differential test: with a 3 s quantum the writer
    # runs while LU zero-fills, and every dirty page belongs to the
    # chunk being faulted in.  This run used to spin until the watchdog.
    cfg = GangConfig("LU", "B", nprocs=1, policy="bg", scale=0.05,
                     quantum_s=60.0, seed=1, max_events=200_000)
    with checked_writer() as counts:
        res = run_experiment(cfg)
    assert len(res.completions) == cfg.njobs
    assert counts["hits"] > 0
