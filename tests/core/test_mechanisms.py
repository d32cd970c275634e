"""Integration tests for the four adaptive mechanisms against the VMM."""

import numpy as np
import pytest

from repro.core import (
    AdaptivePaging,
    AggressivePageOut,
    BackgroundWriter,
    SelectivePageOut,
)
from repro.disk import Disk, DiskParams
from repro.experiments import GangConfig, run_experiment
from repro.mem import GlobalLruPolicy, MemoryParams, VirtualMemoryManager
from repro.sim import Environment


def make_node(total_frames=256):
    env = Environment()
    disk = Disk(env, DiskParams())
    vmm = VirtualMemoryManager(
        env, MemoryParams(total_frames=total_frames), disk
    )
    return env, disk, vmm


def drive(env, gen):
    def wrapper():
        yield from gen
    p = env.process(wrapper())
    env.run(until=p)


def fill(env, vmm, pid, pages, dirty=True):
    drive(env, vmm.touch(pid, pages, dirty=dirty))


# ---------------------------------------------------------------------------
# selective page-out
# ---------------------------------------------------------------------------

def test_selective_targets_outgoing_first():
    env, disk, vmm = make_node(total_frames=200)
    vmm.register_process(1, 256)
    vmm.register_process(2, 256)
    fill(env, vmm, 1, np.arange(80))       # outgoing (older)
    fill(env, vmm, 2, np.arange(80))       # incoming's residual (newer)
    sel = SelectivePageOut(fallback=GlobalLruPolicy())
    sel.set_outgoing(1)
    vmm.victim_selector = sel
    # pressure from pid 2 faulting more
    fill(env, vmm, 2, np.arange(80, 160))
    # pid 2's residual pages survived; pid 1 was drained
    assert vmm.tables[2].resident_count == 160
    assert vmm.tables[1].resident_count < 80
    vmm.check_invariants()


def test_selective_falls_back_when_outgoing_empty():
    env, disk, vmm = make_node(total_frames=128)
    vmm.register_process(1, 256)
    vmm.register_process(2, 256)
    fill(env, vmm, 1, np.arange(5))    # tiny outgoing
    fill(env, vmm, 2, np.arange(65))
    sel = SelectivePageOut(fallback=GlobalLruPolicy())
    sel.set_outgoing(1)
    vmm.victim_selector = sel
    fill(env, vmm, 2, np.arange(65, 130))
    # outgoing fully swapped; fallback must have evicted pid 2 pages too
    assert vmm.tables[1].resident_count == 0
    assert vmm.tables[2].resident_count < 130
    assert vmm.stats.evictions > 5
    vmm.check_invariants()


def test_selective_prevents_false_eviction():
    """Direct comparison: with selective page-out the incoming process's
    residual pages survive the fault burst; with plain LRU they do not."""
    def residual_survivors(selective):
        env, disk, vmm = make_node(total_frames=200)
        vmm.register_process(1, 256)
        vmm.register_process(2, 256)
        # A ran long ago: its residual pages are the oldest
        fill(env, vmm, 2, np.arange(60))
        fill(env, vmm, 1, np.arange(100))
        if selective:
            sel = SelectivePageOut(fallback=GlobalLruPolicy())
            sel.set_outgoing(1)
            vmm.victim_selector = sel
        # A (pid 2) is rescheduled and faults for more memory
        fill(env, vmm, 2, np.arange(60, 120))
        return int(vmm.tables[2].present[:60].sum())

    assert residual_survivors(True) > residual_survivors(False)


def test_selective_oldest_first_within_outgoing():
    env, disk, vmm = make_node()
    t = vmm.register_process(1, 64)
    fill(env, vmm, 1, np.arange(0, 10))
    fill(env, vmm, 1, np.arange(10, 20))  # newer
    sel = SelectivePageOut(fallback=GlobalLruPolicy())
    sel.set_outgoing(1)
    batches = sel(vmm.tables, count=10, cluster=32)
    victims = np.concatenate([b.pages for b in batches])
    assert set(victims) == set(range(10))  # the older half


def test_selective_respects_protect():
    env, disk, vmm = make_node()
    vmm.register_process(1, 64)
    fill(env, vmm, 1, np.arange(0, 20))
    sel = SelectivePageOut(fallback=GlobalLruPolicy())
    sel.set_outgoing(1)
    batches = sel(vmm.tables, count=20, cluster=32,
                  protect={1: np.arange(0, 5)})
    victims = np.concatenate([b.pages for b in batches])
    assert set(victims) == set(range(5, 20))


# ---------------------------------------------------------------------------
# aggressive page-out
# ---------------------------------------------------------------------------

def test_aggressive_frees_to_target():
    env, disk, vmm = make_node(total_frames=256)
    vmm.register_process(1, 256)
    fill(env, vmm, 1, np.arange(200))
    ao = AggressivePageOut(vmm, batch_pages=64)
    drive(env, ao.run(out_pid=1, target_free=150))
    assert vmm.frames.free >= 150
    vmm.check_invariants()


def test_aggressive_stops_when_outgoing_exhausted():
    env, disk, vmm = make_node(total_frames=256)
    vmm.register_process(1, 64)
    vmm.register_process(2, 256)
    fill(env, vmm, 1, np.arange(30))
    fill(env, vmm, 2, np.arange(150))
    ao = AggressivePageOut(vmm)
    drive(env, ao.run(out_pid=1, target_free=250))  # impossible target
    assert vmm.tables[1].resident_count == 0
    assert vmm.tables[2].resident_count == 150  # untouched
    vmm.check_invariants()


def test_aggressive_writes_contiguous_blocks():
    """Address-ordered block eviction produces few, large writes."""
    env, disk, vmm = make_node(total_frames=512)
    vmm.register_process(1, 512)
    fill(env, vmm, 1, np.arange(256))
    writes_before = disk.total_requests
    ao = AggressivePageOut(vmm, batch_pages=128)
    drive(env, ao.run(1, target_free=vmm.frames.free + 256))
    writes = disk.total_requests - writes_before
    assert writes == 2  # 256 pages in 2 batches
    # each write got contiguous swap slots -> exactly 1 seek each
    assert disk.total_seeks <= 2 + 1


def test_aggressive_noop_if_enough_free():
    env, disk, vmm = make_node(total_frames=256)
    vmm.register_process(1, 64)
    fill(env, vmm, 1, np.arange(10))
    ao = AggressivePageOut(vmm)
    drive(env, ao.run(1, target_free=100))
    assert vmm.tables[1].resident_count == 10  # nothing evicted


def test_aggressive_waits_for_the_fault_demanding_its_victims():
    """The outgoing process's own fault in flight demands every page
    ``ao`` picks: the batch frees nothing, and ``ao`` must wait for that
    fault to end instead of re-picking at the same instant forever."""
    env, disk, vmm = make_node(total_frames=256)
    vmm.register_process(1, 256)
    fill(env, vmm, 1, np.arange(64))
    # demands the 64 resident pages plus 16 zero-fill pages, whose
    # minor-fault charge keeps the fault in flight
    fault = env.process(vmm.touch(1, np.arange(80)))
    env.step()  # start the fault: it now sits in its zero-fill delay
    assert [pid for pid, _ in vmm._active_demands] == [1]
    ao = AggressivePageOut(vmm, batch_pages=64)
    p = env.process(ao.run(out_pid=1, target_free=256))
    for _ in range(1000):
        if not p.is_alive:
            break
        env.step()
    assert not p.is_alive and not fault.is_alive
    assert env.now > 0
    assert vmm.tables[1].resident_count == 0
    assert vmm._active_demands == []
    vmm.check_invariants()


def test_aggressive_spin_config_completes():
    """A gang-scheduled cell whose ``ao`` batches used to free nothing
    at one virtual instant until the event watchdog fired."""
    res = run_experiment(GangConfig(
        "CG", "B", nprocs=1, policy="so/ao", scale=0.05, quantum_s=60.0,
        seed=1, max_events=200_000,
    ))
    assert res.completions


def test_aggressive_target_for_caps_at_memory():
    env, disk, vmm = make_node(total_frames=100)
    ao = AggressivePageOut(vmm)
    assert ao.target_for(10**9) == 100
    small = ao.target_for(10)
    assert small == 10 + vmm.params.freepages_high


def test_aggressive_invalid_batch():
    env, disk, vmm = make_node()
    with pytest.raises(ValueError):
        AggressivePageOut(vmm, batch_pages=0)


# ---------------------------------------------------------------------------
# background writer
# ---------------------------------------------------------------------------

def test_bgwriter_cleans_dirty_pages_keeping_them_resident():
    env, disk, vmm = make_node()
    t = vmm.register_process(1, 64)
    fill(env, vmm, 1, np.arange(32), dirty=True)
    bw = BackgroundWriter(vmm, batch_pages=16, poll_s=0.5)
    bw.start(1)
    env.run(until=env.now + 10.0)
    bw.stop()
    env.run(until=env.now + 1.0)
    assert t.resident_count == 32
    assert not t.dirty[:32].any()
    assert bw.pages_written == 32
    assert not bw.active
    vmm.check_invariants()


def test_bgwriter_stop_is_idempotent():
    env, disk, vmm = make_node()
    vmm.register_process(1, 64)
    bw = BackgroundWriter(vmm)
    bw.start(1)
    env.run(until=0.1)
    bw.stop()
    bw.stop()
    assert not bw.active


def test_bgwriter_double_start_rejected():
    env, disk, vmm = make_node()
    vmm.register_process(1, 64)
    bw = BackgroundWriter(vmm)
    bw.start(1)
    with pytest.raises(RuntimeError):
        bw.start(1)
    bw.stop()


def test_bgwriter_unknown_pid_rejected():
    env, disk, vmm = make_node()
    bw = BackgroundWriter(vmm)
    with pytest.raises(KeyError):
        bw.start(42)


def test_bgwriter_rewrites_redirtied_pages():
    """§3.4's cost: pages dirtied again after cleaning are written twice."""
    env, disk, vmm = make_node()
    vmm.register_process(1, 64)
    fill(env, vmm, 1, np.arange(16), dirty=True)
    bw = BackgroundWriter(vmm, batch_pages=16, poll_s=0.5)
    bw.start(1)
    env.run(until=env.now + 5.0)
    fill(env, vmm, 1, np.arange(16), dirty=True)  # re-dirty
    env.run(until=env.now + 5.0)
    bw.stop()
    assert bw.pages_written >= 32  # each page written twice


def test_bgwriter_writes_at_background_priority():
    env, disk, vmm = make_node()
    vmm.register_process(1, 64)
    fill(env, vmm, 1, np.arange(32), dirty=True)
    priorities = []
    orig_submit = disk.submit

    def spy(slots, op, priority=0, pid=None):
        priorities.append(priority)
        return orig_submit(slots, op, priority, pid)

    disk.submit = spy
    bw = BackgroundWriter(vmm, batch_pages=8)
    bw.start(1)
    env.run(until=env.now + 5.0)
    bw.stop()
    from repro.disk import PRIO_BACKGROUND
    assert priorities and all(p == PRIO_BACKGROUND for p in priorities)


def test_bgwriter_validation():
    env, disk, vmm = make_node()
    with pytest.raises(ValueError):
        BackgroundWriter(vmm, batch_pages=0)
    with pytest.raises(ValueError):
        BackgroundWriter(vmm, poll_s=0)
