"""The eager eviction mirror against scalar ``evict_batch``.

Batch-advance commits a same-pid span of victim batches in one
vectorised pass (``VirtualMemoryManager._eager_evict_span``).  Twin
VMMs built by the same history evict the same span, one through the
scalar process fragment and one through the mirror; every piece of
state the eviction touches must come out equal, and the mirror must
absorb one lock-grant wakeup per batch, even for a batch revalidation
empties.
"""

import numpy as np
import pytest

from repro.disk import Disk, DiskParams
from repro.mem import MemoryParams, VictimBatch, VirtualMemoryManager
from repro.sim import Environment


def drive(env, gen):
    def wrapper():
        return (yield from gen)
    p = env.process(wrapper())
    env.run(until=p)
    return p.value


def make_twin():
    """A VMM whose pid 1 holds slotless dirty pages 0..15, pages with
    a clean swap copy from 16 on (17 re-dirtied) and an in-flight
    demand on page 5."""
    env = Environment()
    disk = Disk(env, DiskParams())
    vmm = VirtualMemoryManager(env, MemoryParams(total_frames=128), disk)
    vmm.register_process(1, 64)
    drive(env, vmm.touch(1, np.arange(24), dirty=True))
    drive(env, vmm.evict_batch(VictimBatch(1, np.arange(16, 24))))
    drive(env, vmm.touch(1, np.arange(16, 20)))
    drive(env, vmm.touch(1, np.array([17]), dirty=True))
    vmm._add_demand((1, np.array([5])))
    flushed = []
    vmm.on_flush = lambda pid, pages: flushed.append((pid, pages.tolist()))
    return env, disk, vmm, flushed


def state(disk, vmm, flushed):
    t = vmm.tables[1]
    return {
        "stats": vmm.stats.snapshot(),
        "present": t.present.tolist(),
        "dirty": t.dirty.tolist(),
        "referenced": t.referenced.tolist(),
        "last_ref": t.last_ref.tolist(),
        "swap_slot": t.swap_slot.tolist(),
        "frames": (vmm.frames.free, vmm.frames.used),
        "swap": (dict(vmm.swap._free_runs), vmm.swap._free_count),
        "disk": (disk.total_requests, dict(disk.total_pages),
                 disk.total_seeks, disk.total_busy_s, disk._head,
                 disk._last_op),
        "evicted_at": vmm._evicted_at[1].tolist(),
        "ever_evicted": set(vmm._ever_evicted),
        "flushed": flushed,
    }


SPANS = {
    # writes (slotless 0..2, dirty 17) mixed with discards (16, 18)
    "one_batch": [[0, 1, 2, 16, 17, 18]],
    # 40 is not resident, 5 is demanded, 2 repeats batch 0's page,
    # [18, 19] writes nothing and [5] is emptied by revalidation
    "revalidated": [[0, 1, 2, 40], [3, 4, 5], [2, 6, 16], [18, 19], [5]],
}


@pytest.mark.parametrize("case", sorted(SPANS))
def test_span_matches_scalar_evict_batch(case):
    span = [VictimBatch(1, np.array(b, dtype=np.int64)) for b in SPANS[case]]

    env_s, disk_s, vmm_s, flushed_s = make_twin()

    def scalar():
        total = 0
        for batch in span:
            total += yield from vmm_s.evict_batch(batch)
        return total

    evicted_s = drive(env_s, scalar())

    env_e, disk_e, vmm_e, flushed_e = make_twin()
    absorbed = env_e.events_absorbed
    requests = disk_e.total_requests
    evicted_e, t_e = vmm_e._eager_evict_span(1, span, env_e.now)

    assert evicted_e == evicted_s > 0
    assert t_e == env_s.now
    assert state(disk_e, vmm_e, flushed_e) == state(disk_s, vmm_s, flushed_s)
    # one lock-grant wakeup per batch, plus the service timeout and
    # completion trigger of each write request
    writes = disk_e.total_requests - requests
    assert env_e.events_absorbed - absorbed - 2 * writes == len(span)
    vmm_e.check_invariants()


def test_span_of_vanished_table_absorbs_wakeups():
    env, disk, vmm, _ = make_twin()
    span = [VictimBatch(7, np.array([0])), VictimBatch(7, np.array([1]))]
    absorbed = env.events_absorbed
    assert vmm._eager_evict_span(7, span, 3.5) == (0, 3.5)
    assert env.events_absorbed - absorbed == 2
