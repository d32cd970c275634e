"""The background writer's staged window against the per-burst code.

:class:`ReferenceQueue` and :func:`reference_clean_batch` are committed
copies of the writer's queue pick and burst write as they stood before
staging: every pick sorted its burst on its own, and every burst
gathered its slots and counted the slotless ones itself
(:func:`reference_burst_to_write`).  The staged queue sorts, gathers and
counts a window of bursts at once and hands each burst its share.  Two
checks hold it to the copies:

* :func:`checked_staging` compares, at every pick, the staged slots and
  slotless count with a gather from the table, and at every burst that
  uses them, the pages and slots with the reference re-validation;
* drawn runs are made once with the copies patched in and once without,
  and must match in every simulated output and dispatched event.

The unit tests break the epoch inside a staged window, stage bursts
with slotless pages (their slots are allocated in the same order) and
drop a demanded page from a staged burst.
"""

from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import background
from repro.core.background import OldestDirtyQueue
from repro.disk import Disk, DiskParams
from repro.disk.device import PRIO_BACKGROUND
from repro.experiments import GangConfig, run_experiment
from repro.faults import FaultRates
from repro.faults.errors import DiskFailure
from repro.mem import MemoryParams, VirtualMemoryManager
from repro.mem.frames import OutOfFramesError
from repro.mem.replacement import VictimBatch
from repro.sim import Environment


class ReferenceQueue(OldestDirtyQueue):
    """The queue's pick before staging (committed copy): the burst is
    sorted on its own and nothing is staged with it."""

    __slots__ = ()

    def pick(self, n):
        t = self.table
        if t.epoch != self._epoch or (
                self._valid_end - self._cursor < n
                and self._valid_end < self._pages.size):
            self._validate(n)
        cursor = self._cursor
        hi = min(cursor + n, self._valid_end)
        pick_p = self._pages[cursor:hi]
        low = t.dirty_low_water
        if hi > cursor and self._keys[hi - 1] >= low:
            return None
        if pick_p.size < n and low != np.inf:
            return None
        self._picked = pick_p.size
        self.slots = None
        self.slotless = 0
        return np.sort(pick_p)


def reference_burst_to_write(vmm, table, batch, epoch):
    """``VirtualMemoryManager._burst_to_write`` before staging."""
    pages = batch.pages
    held = table.epoch == epoch
    if not held:
        pages = pages[table.present[pages]]
    demanded = vmm._demand_counts[batch.pid][pages]
    if np.count_nonzero(demanded):
        pages = pages[demanded == 0]
    slots = table.swap_slot[pages]
    if not held:
        needs_write = table.dirty[pages] | (slots < 0)
        pages = pages[needs_write]
        slots = slots[needs_write]
    return pages, slots, held and pages.size == batch.pages.size


def reference_clean_batch(vmm, batch, priority, epoch):
    """``VirtualMemoryManager.clean_batch`` before staging."""
    lock = yield from vmm._acquire_evict_lock()
    try:
        table = vmm.tables.get(batch.pid)
        if table is None:
            return 0, None
        pages, slots, proved = reference_burst_to_write(
            vmm, table, batch, epoch)
        if pages.size == 0:
            return 0, None
        no_slot = slots < 0
        slotless = np.count_nonzero(no_slot)
        if slotless:
            new_slots = vmm.swap.allocate(slotless)
            slots[no_slot] = new_slots
            table.assign_slots(pages[no_slot], new_slots)
        mine = table.epoch
        yield vmm.disk.submit(slots, "write", priority, pid=batch.pid)
        if batch.pid not in vmm.tables:
            return 0, None
        vmm.stats.pages_swapped_out += pages.size
        vmm._c_pages_out.inc(pages.size)
        proved = proved and table.epoch == mine
        table.mark_clean(pages)
        return int(pages.size), table.epoch if proved else None
    finally:
        vmm._evict_lock.release(lock)


@contextmanager
def reference_writer():
    """Run the writer with the pre-staging pick and burst write."""
    with patch.object(background, "OldestDirtyQueue", ReferenceQueue), \
            patch.object(VirtualMemoryManager, "clean_batch",
                         reference_clean_batch):
        yield


@contextmanager
def checked_staging():
    """Check every staged pick and every burst that uses its staging.

    Yields a dict counting picks (``"picks"``), bursts that wrote from
    their staged slots (``"staged"``) and staged bursts with slotless
    pages (``"slotless"``)."""
    counts = {"picks": 0, "staged": 0, "slotless": 0}
    pick = OldestDirtyQueue.pick
    burst_to_write = VirtualMemoryManager._burst_to_write

    def checked_pick(queue, n):
        got = pick(queue, n)
        if got is not None:
            counts["picks"] += 1
            slots = queue.table.swap_slot[got]
            np.testing.assert_array_equal(queue.slots, slots)
            assert queue.slotless == np.count_nonzero(slots < 0)
        return got

    def checked_burst_to_write(vmm, table, batch, epoch):
        ref = reference_burst_to_write(vmm, table, batch, epoch)
        got = burst_to_write(vmm, table, batch, epoch)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])
        assert got[2] == ref[2]
        assert got[3] == np.count_nonzero(ref[1] < 0)
        if got[1] is batch.slots:
            counts["staged"] += 1
            counts["slotless"] += got[3] > 0
        return got

    with patch.object(OldestDirtyQueue, "pick", checked_pick), \
            patch.object(VirtualMemoryManager, "_burst_to_write",
                         checked_burst_to_write):
        yield counts


def outputs(cfg):
    """Everything a run simulates, plus its dispatched-event count."""
    try:
        res = run_experiment(cfg)
    except (DiskFailure, OutOfFramesError) as exc:
        return type(exc).__name__
    # pids come from a process-wide counter, so they are renumbered in
    # order of first appearance
    pids = {}
    trace = [(e.node, e.op, e.pages, e.start, e.end,
              pids.setdefault(e.pid, len(pids)))
             for e in res.collector.paging]
    return (res.makespan, res.completions, res.vmm_stats,
            res.fault_summary, res.events_simulated, res.events_dispatched,
            trace)


# ---------------------------------------------------------------------------
# differential: staged runs against the pre-staging copies
# ---------------------------------------------------------------------------

RUNS = st.fixed_dictionaries(
    {
        "cell": st.sampled_from([("LU", "B", 1), ("LU", "C", 2),
                                 ("CG", "B", 1), ("MG", "B", 2),
                                 ("SP", "B", 1)]),
        "policy": st.sampled_from(["bg", "so/bg", "ao/bg", "so/ao/ai/bg"]),
        "scale": st.sampled_from([0.03, 0.05]),
        "quantum_s": st.sampled_from([30.0, 60.0, 300.0]),
        "seed": st.integers(0, 10_000),
        "disk_error_rate": st.sampled_from([0.0, 0.0, 0.05, 0.3]),
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


@given(RUNS)
@settings(max_examples=10, deadline=None)
def test_staged_runs_equal_the_per_burst_runs(params):
    cfg = build(params)
    with checked_staging():
        got = outputs(cfg)
    with reference_writer():
        assert got == outputs(cfg)


def test_operating_point_stages_nearly_every_burst():
    cfg = GangConfig("LU", "C", nprocs=2, policy="so/ao/ai/bg", scale=0.1,
                     seed=1)
    with checked_staging() as counts:
        got = outputs(cfg)
    assert counts["staged"] * 10 > counts["picks"] * 9
    assert counts["slotless"] > 0
    with reference_writer():
        assert got == outputs(cfg)


# ---------------------------------------------------------------------------
# the staged window, case by case
# ---------------------------------------------------------------------------

def make_queued_node(num_dirty=96):
    """``num_dirty`` dirty, slotless pages with distinct keys, queued."""
    env = Environment()
    disk = Disk(env, DiskParams())
    vmm = VirtualMemoryManager(env, MemoryParams(total_frames=512), disk)
    t = vmm.register_process(1, 256)
    env.run(until=env.process(
        vmm.touch(1, np.arange(num_dirty), dirty=True)))
    t.set_last_ref_values(np.arange(num_dirty),
                          np.arange(num_dirty, dtype=float)[::-1])
    return env, disk, vmm, t, OldestDirtyQueue(t)


def write(env, vmm, queue, burst, clean_batch=None, during=None):
    """Write ``burst`` as the writer does (the epoch is read at the
    pick), calling ``during(table)`` while the write is on the disk, and
    consume the burst if proved."""
    clean_batch = clean_batch or VirtualMemoryManager.clean_batch
    table = queue.table
    batch = VictimBatch(1, burst, queue.slots, queue.slotless)
    epoch = table.epoch
    out = {}

    def writer():
        out["r"] = yield from clean_batch(vmm, batch, PRIO_BACKGROUND, epoch)
    proc = env.process(writer())
    if during is not None:
        env.run(until=env.now + 1e-4)  # well inside one disk transfer
        during(table)
    env.run(until=proc)
    written, epoch = out["r"]
    if epoch is not None:
        queue.consume(epoch)
    return written, epoch


def test_slotless_bursts_get_their_slots_in_the_reference_order():
    # every page is slotless: each staged burst allocates its slots at
    # write time, in page order, exactly as the per-burst write did
    runs = []
    for queue_cls, clean_batch in ((OldestDirtyQueue, None),
                                   (ReferenceQueue, reference_clean_batch)):
        env, disk, vmm, t, _ = make_queued_node()
        q = queue_cls(t)
        bursts = []
        for _ in range(6):
            burst = q.pick(16)
            if queue_cls is OldestDirtyQueue:
                assert q.slotless == 16
            bursts.append(burst.tolist())
            write(env, vmm, q, burst, clean_batch)
        runs.append((bursts, t.swap_slot.tolist(), env.now,
                     disk.total_seeks))
        vmm.check_invariants()
    assert runs[0] == runs[1]


def test_epoch_break_inside_a_staged_window_restages():
    env, disk, vmm, t, q = make_queued_node()
    write(env, vmm, q, q.pick(8))
    burst = q.pick(8)  # the second burst of the staged window
    np.testing.assert_array_equal(burst, np.arange(80, 88))

    def foreign_write(table):
        # page 70, staged in a later burst of the window, gets a slot
        # and is cleaned while this burst is on the disk
        assert disk.busy
        table.assign_slots(np.array([70]), vmm.swap.allocate(1))
        table.mark_clean(np.array([70]))
    written, epoch = write(env, vmm, q, burst, during=foreign_write)
    assert written == 8 and epoch is None  # not proved: not consumed
    burst = q.pick(8)  # revalidated and restaged: 80-87 are clean now
    np.testing.assert_array_equal(burst, np.arange(72, 80))
    np.testing.assert_array_equal(q.slots, t.swap_slot[burst])
    write(env, vmm, q, burst)
    burst = q.pick(8)
    np.testing.assert_array_equal(burst, [63, 64, 65, 66, 67, 68, 69, 71])
    np.testing.assert_array_equal(q.slots, t.swap_slot[burst])
    assert q.slotless == 8
    vmm.check_invariants()


def test_restamp_inside_a_staged_window_is_not_served_stale():
    env, disk, vmm, t, q = make_queued_node()
    write(env, vmm, q, q.pick(8))
    # page 85 was staged in the next burst; a re-stamp moves it last
    t.record_access(np.array([85]), 1000.0, dirty=True)
    burst = q.pick(8)
    np.testing.assert_array_equal(burst, [79, 80, 81, 82, 83, 84, 86, 87])
    np.testing.assert_array_equal(q.slots, t.swap_slot[burst])


def test_demanded_page_in_a_staged_burst_is_gathered_fresh():
    env, disk, vmm, t, q = make_queued_node()
    burst = q.pick(8)
    staged = q.slots
    fault = (1, burst[3:4])
    vmm._add_demand(fault)
    pages, slots, proved, slotless = vmm._burst_to_write(
        t, VictimBatch(1, burst, q.slots, q.slotless), t.epoch)
    vmm._remove_demand(fault)
    assert not proved and slots is not staged
    np.testing.assert_array_equal(pages, np.delete(burst, 3))
    assert slotless == 7
