"""Where the eager read commit cuts a run of read groups.

``VirtualMemoryManager._eager_read_run`` takes read groups while their
cumulative size stays within ``free - freepages.min`` (the caller has
already made room for the first), and stops at the first zero-fill
group.  A demand fill is run twice from the same history, once on the
fast path and once under the scalar oracle, with the room set to
exactly four 16-page groups, to one page less, and to plenty with a
zero-fill group after the fourth.  The first run must take four, three
and four groups, and both modes must end with the same statistics,
page state and disk completions.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.disk import Disk, DiskParams
from repro.mem import MemoryParams, VictimBatch, VirtualMemoryManager
from repro.sim import Environment, set_fast_path_enabled

FRAMES = 256
MIN = 8
#: pid 1's swapped-out pages: eight 16-page read-ahead groups
DEMAND = 128
#: swapped pages 0..63, then 16 never-touched pages, then 64..127
WITH_ZERO_FILL = np.concatenate((np.arange(64), np.arange(128, 144),
                                 np.arange(64, 128)))


def drive(env, gen):
    def wrapper():
        return (yield from gen)
    p = env.process(wrapper())
    env.run(until=p)
    return p.value


def fill(resident_other, demand):
    """Fault pid 1's ``demand`` in with ``resident_other`` pages of pid 2
    resident, so ``free - freepages.min`` is
    ``FRAMES - resident_other - MIN`` when the fill starts.  Returns
    the fill's observable outcome and the group count of every eager
    read run."""
    env = Environment()
    disk = Disk(env, DiskParams())
    vmm = VirtualMemoryManager(
        env, MemoryParams(total_frames=FRAMES, freepages_min=MIN,
                          freepages_high=16), disk)
    t1 = vmm.register_process(1, 2 * DEMAND)
    t2 = vmm.register_process(2, FRAMES)
    drive(env, vmm.touch(1, np.arange(DEMAND), dirty=True))
    for lo in range(0, DEMAND, 32):
        drive(env, vmm.evict_batch(VictimBatch(1, np.arange(lo, lo + 32))))
    drive(env, vmm.touch(2, np.arange(resident_other), dirty=True))
    assert vmm.frames.free - MIN == FRAMES - resident_other - MIN

    # a bare VMM has no scheduler; publish deadlines that never bind
    vmm.deadlines = SimpleNamespace(bg_arm_at=np.inf, run_cap_at=np.inf,
                                    bgwriter=None)
    completions = []
    disk.on_complete = lambda req, t0, t1_: completions.append(
        (req.op, req.slots.tolist(), req.pid, t0, t1_))
    runs = []
    commit = vmm._eager_read_run

    def spy(table, pid, plan, start, t, deadline):
        out = commit(table, pid, plan, start, t, deadline)
        runs.append(out[0])
        return out

    vmm._eager_read_run = spy
    drive(env, vmm.touch(1, demand))
    vmm.check_invariants()
    outcome = {
        "now": env.now,
        "stats": vmm.stats.snapshot(),
        "frames": vmm.frames.free,
        "present": (t1.present.tolist(), t2.present.tolist()),
        "last_ref": (t1.last_ref.tolist(), t2.last_ref.tolist()),
        "swap_slot": (t1.swap_slot.tolist(), t2.swap_slot.tolist()),
        "disk": (disk.total_requests, dict(disk.total_pages),
                 disk.total_seeks, disk.total_busy_s, disk._head),
        "completions": completions,
    }
    return outcome, runs


@pytest.mark.parametrize("resident_other,demand,first_run", [
    # room is exactly four groups
    (FRAMES - MIN - 64, np.arange(DEMAND), 4),
    # one page short of the fourth
    (FRAMES - MIN - 64 + 1, np.arange(DEMAND), 3),
    # room for every group; the zero-fill group ends the run
    (0, WITH_ZERO_FILL, 4),
], ids=["room-exact", "room-one-short", "zero-fill"])
def test_run_cut_at_freepages_min(resident_other, demand, first_run):
    set_fast_path_enabled(False)
    try:
        oracle, oracle_runs = fill(resident_other, demand)
    finally:
        set_fast_path_enabled(True)
    fast, runs = fill(resident_other, demand)
    assert oracle_runs == []
    assert runs[0] == first_run
    assert sum(runs) == DEMAND // 16
    assert fast == oracle
