"""Integration tests for the virtual memory manager."""

import numpy as np
import pytest

from repro.disk import Disk, DiskParams
from repro.mem import MemoryParams, VirtualMemoryManager
from repro.mem.readahead import plan_block_reads
from repro.sim import Environment


def make_vmm(total_frames=128, **kw):
    env = Environment()
    disk = Disk(env, DiskParams())
    params = MemoryParams(total_frames=total_frames, **kw)
    vmm = VirtualMemoryManager(env, params, disk)
    return env, disk, vmm


def drive(env, gen):
    """Run a generator fragment as a process to completion."""
    def wrapper():
        yield from gen
        return "done"
    p = env.process(wrapper())
    env.run(until=p)


def test_params_defaults():
    p = MemoryParams(total_frames=1000)
    assert p.freepages_min == 20
    assert p.freepages_high == 40
    assert p.swap_slots == 4000


def test_params_validation():
    with pytest.raises(ValueError):
        MemoryParams(total_frames=0)
    with pytest.raises(ValueError):
        MemoryParams(total_frames=100, freepages_min=50, freepages_high=20)
    with pytest.raises(ValueError):
        MemoryParams(total_frames=100, swap_cluster=0)


def test_register_unregister_process():
    env, disk, vmm = make_vmm()
    vmm.register_process(1, 64)
    with pytest.raises(ValueError):
        vmm.register_process(1, 64)
    drive(env, vmm.touch(1, np.arange(10)))
    assert vmm.frames.used == 10
    vmm.unregister_process(1)
    assert vmm.frames.used == 0
    vmm.check_invariants()


def test_first_touch_is_zero_fill():
    env, disk, vmm = make_vmm()
    vmm.register_process(1, 64)
    drive(env, vmm.touch(1, np.arange(16)))
    assert vmm.stats.minor_faults == 16
    assert vmm.stats.major_faults == 0
    assert disk.total_requests == 0  # no disk I/O for zero-fill
    assert vmm.tables[1].resident_count == 16
    vmm.check_invariants()


def test_touch_records_access_and_dirty():
    env, disk, vmm = make_vmm()
    t = vmm.register_process(1, 64)
    drive(env, vmm.touch(1, np.arange(4), dirty=True))
    assert t.dirty[:4].all()
    assert t.last_ref[:4].max() >= 0


def test_retouch_resident_is_free():
    env, disk, vmm = make_vmm()
    vmm.register_process(1, 64)
    drive(env, vmm.touch(1, np.arange(8)))
    before = env.now
    drive(env, vmm.touch(1, np.arange(8)))
    assert env.now == before  # no faults, no time
    assert vmm.stats.minor_faults == 8


def test_memory_pressure_triggers_reclaim_and_swap():
    """Touching more than physical memory forces page-outs then -ins."""
    env, disk, vmm = make_vmm(total_frames=128)
    vmm.register_process(1, 256)
    drive(env, vmm.touch(1, np.arange(100), dirty=True))
    drive(env, vmm.touch(1, np.arange(100, 200), dirty=True))
    assert vmm.stats.pages_swapped_out > 0
    assert vmm.frames.free >= 0
    vmm.check_invariants()
    # now touch the original range again: major faults from swap
    drive(env, vmm.touch(1, np.arange(0, 50)))
    assert vmm.stats.pages_swapped_in > 0
    assert vmm.stats.major_faults > 0
    vmm.check_invariants()


def test_oversized_phase_rejected():
    env, disk, vmm = make_vmm(total_frames=128)
    vmm.register_process(1, 512)
    with pytest.raises(ValueError, match="chunk the phase"):
        drive(env, vmm.touch(1, np.arange(256)))


def test_clean_pages_discarded_without_io():
    """A clean page with a valid swap copy is evicted without a write."""
    env, disk, vmm = make_vmm(total_frames=64)
    vmm.register_process(1, 256)
    # fill memory with dirty pages, force them out, bring some back
    drive(env, vmm.touch(1, np.arange(50), dirty=True))
    drive(env, vmm.touch(1, np.arange(50, 100), dirty=True))  # evicts range 0..
    writes_after_fill = disk.total_pages["write"]
    drive(env, vmm.touch(1, np.arange(0, 30)))  # swap back in, clean
    # force eviction again by touching another range WITHOUT dirtying
    drive(env, vmm.touch(1, np.arange(100, 150), dirty=True))
    assert vmm.stats.pages_discarded > 0
    vmm.check_invariants()


def test_rewrite_dirty_page_reuses_slot():
    env, disk, vmm = make_vmm(total_frames=64)
    t = vmm.register_process(1, 256)
    drive(env, vmm.touch(1, np.arange(50), dirty=True))
    drive(env, vmm.touch(1, np.arange(50, 100), dirty=True))
    slots_first = t.swap_slot[np.arange(50)].copy()
    # bring back and re-dirty
    drive(env, vmm.touch(1, np.arange(0, 40), dirty=True))
    drive(env, vmm.touch(1, np.arange(100, 150), dirty=True))
    slots_second = t.swap_slot[np.arange(40)]
    evicted_again = ~t.present[np.arange(40)]
    # pages evicted twice keep their original slot (rewrite in place)
    assert np.array_equal(
        slots_second[evicted_again], slots_first[:40][evicted_again]
    )
    vmm.check_invariants()


def test_refaults_counted():
    env, disk, vmm = make_vmm(total_frames=64)
    vmm.register_process(1, 256)
    drive(env, vmm.touch(1, np.arange(50), dirty=True))
    drive(env, vmm.touch(1, np.arange(50, 100), dirty=True))
    drive(env, vmm.touch(1, np.arange(0, 20)))  # quick refault
    assert vmm.stats.refaults > 0


def test_victim_selector_hook_overrides_policy():
    env, disk, vmm = make_vmm(total_frames=64)
    vmm.register_process(1, 128)
    vmm.register_process(2, 128)
    drive(env, vmm.touch(1, np.arange(30), dirty=True))
    drive(env, vmm.touch(2, np.arange(20), dirty=True))

    from repro.mem.replacement import VictimBatch

    calls = []

    def selector(tables, count, cluster, protect=None):
        calls.append(count)
        t = tables[1]
        res = t.resident_pages()[:count]
        if res.size == 0:
            return []
        return [VictimBatch(1, res)]

    vmm.victim_selector = selector
    drive(env, vmm.touch(2, np.arange(20, 60), dirty=True))
    assert calls, "custom selector was not consulted"
    # only pid 1 pages were evicted
    assert vmm.tables[2].resident_count == 60
    vmm.check_invariants()


def test_on_flush_observer_sees_flush_order():
    env, disk, vmm = make_vmm(total_frames=64)
    vmm.register_process(1, 256)
    flushed = []
    vmm.on_flush = lambda pid, pages: flushed.append((pid, pages.copy()))
    drive(env, vmm.touch(1, np.arange(50), dirty=True))
    drive(env, vmm.touch(1, np.arange(50, 100), dirty=True))
    assert flushed
    total = sum(p.size for _, p in flushed)
    assert total == vmm.stats.pages_swapped_out + vmm.stats.pages_discarded


def test_swap_in_block_reads_large_runs():
    env, disk, vmm = make_vmm(total_frames=256)
    t = vmm.register_process(1, 512)
    drive(env, vmm.touch(1, np.arange(100), dirty=True))
    drive(env, vmm.touch(1, np.arange(100, 200), dirty=True))
    # plan block reads for the evicted prefix
    evicted = np.flatnonzero(~t.present[:100])
    groups = plan_block_reads(t, evicted, max_batch=64)
    reqs_before = disk.total_requests
    drive(env, vmm.swap_in_block(1, groups))
    reads = disk.total_requests - reqs_before
    assert t.present[evicted].all()
    assert reads == len(groups)
    vmm.check_invariants()


def test_reclaim_direct_call_frees_frames():
    env, disk, vmm = make_vmm(total_frames=64)
    vmm.register_process(1, 128)
    drive(env, vmm.touch(1, np.arange(60), dirty=True))
    free_before = vmm.frames.free
    drive(env, vmm.reclaim(16))
    assert vmm.frames.free >= free_before + 16
    vmm.check_invariants()


def test_evict_batch_keep_resident_cleans_without_evicting():
    env, disk, vmm = make_vmm(total_frames=64)
    t = vmm.register_process(1, 64)
    drive(env, vmm.touch(1, np.arange(10), dirty=True))
    from repro.mem.replacement import VictimBatch

    drive(env, vmm.clean_batch(VictimBatch(1, np.arange(10)), 0, t.epoch))
    assert t.resident_count == 10          # still in memory
    assert not t.dirty[:10].any()          # but clean now
    assert (t.swap_slot[:10] >= 0).all()   # with swap copies
    assert disk.total_pages["write"] == 10
    vmm.check_invariants()


def test_unregister_mid_fault_purges_demand_entries():
    """Killing a process while its fault service is in flight must purge
    its demand entries: the victim-selector protect map sees no dead
    pid, and the unwinding touch generator's ``_remove_demand`` call
    tolerates the already-purged entry instead of raising."""
    from repro.sim import Interrupt

    env, disk, vmm = make_vmm(total_frames=64)
    vmm.register_process(1, 128)
    # swap a range out so re-touching it blocks on disk reads
    drive(env, vmm.touch(1, np.arange(40), dirty=True))
    drive(env, vmm.touch(1, np.arange(40, 80), dirty=True))
    assert vmm.stats.pages_swapped_out > 0

    def refault():
        try:
            yield from vmm.touch(1, np.arange(20))
        except Interrupt:
            pass

    p = env.process(refault())
    env.run(until=env.now + 1e-6)  # start the touch; disk I/O takes longer
    assert any(pid == 1 for pid, _ in vmm._active_demands)

    vmm.unregister_process(1)
    assert all(pid != 1 for pid, _ in vmm._active_demands)
    assert 1 not in vmm._active_protect()

    p.interrupt("process killed mid-fault")
    env.run(until=p)  # the finally-unwind must not raise
    assert vmm._active_demands == []
    assert vmm._purged_demands == set()  # purge set fully drained
    assert vmm.frames.used == 0  # teardown + unwind returned every frame

    # pid reuse after a mid-flight teardown starts from a clean slate
    t = vmm.register_process(1, 32)
    drive(env, vmm.touch(1, np.arange(8)))
    assert t.resident_count == 8
    vmm.check_invariants()


def test_remove_demand_unknown_entry_still_raises():
    """The purge tolerance is identity-keyed: an entry that was never
    registered (and never purged) is still a caller bug."""
    env, disk, vmm = make_vmm()
    vmm.register_process(1, 16)
    with pytest.raises(ValueError, match="not registered"):
        vmm._remove_demand((1, np.arange(4)))


def test_stats_snapshot():
    env, disk, vmm = make_vmm()
    vmm.register_process(1, 32)
    drive(env, vmm.touch(1, np.arange(4)))
    snap = vmm.stats.snapshot()
    assert snap["minor_faults"] == 4
    assert isinstance(snap, dict)
