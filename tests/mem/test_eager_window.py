"""Where a batch-advance window hands a demand fill back to dispatch.

A demand fill on the fast path runs inside an eager window: effects are
applied under a local clock that must stay strictly before the
published deadline.  The window closes early at three places, each
tested here against the scalar oracle on twin bare VMMs built by the
same history:

* before a reclaim episode whose whole-episode duration bound does not
  end before the deadline (episodes are committed whole or not begun);
* when nothing is evictable, where the ``OutOfFramesError`` is raised
  only after the resync timeout, at the instant the oracle raises it;
* before a zero-fill delay that does not end before the deadline.

Each case is run with the deadline exactly at the bound (the window
hands back) and one float step past it (the effect is taken inside the
window); both must end with the oracle's clock, statistics, page state
and disk completions.  The fast path fuses each read group's CPU charge
into its completion trigger, one event fewer than the oracle, so the
logical event count ``events_simulated`` is compared with a third twin:
the fast path with no deadlines published, which dispatches every event.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.disk import Disk, DiskParams
from repro.mem import MemoryParams, VictimBatch, VirtualMemoryManager
from repro.mem.frames import OutOfFramesError
from repro.sim import Environment, set_fast_path_enabled

FRAMES = 256
MIN = 8
HIGH = 16
GROUP = 16
#: pid 1's swapped-out pages: eight 16-page read-ahead groups
DEMAND = np.arange(128)
#: swapped pages 0..63, then 16 never-touched pages, then 64..127
WITH_ZERO_FILL = np.concatenate((np.arange(64), np.arange(128, 144),
                                 np.arange(64, 128)))
#: pid 2's resident pages that leave room for exactly four groups
CROWDED = FRAMES - MIN - 4 * GROUP
PARAMS = MemoryParams(total_frames=FRAMES, freepages_min=MIN,
                      freepages_high=HIGH)


def drive(env, gen):
    def wrapper():
        return (yield from gen)
    p = env.process(wrapper())
    env.run(until=p)
    return p.value


def node(other, deadline):
    """pid 1 with pages 0..127 swapped out (dirty, then evicted) and
    ``other`` dirty pages of pid 2 resident; deadlines published as a
    scheduler would, with the background-writer arm at ``deadline``
    (none when ``deadline`` is ``None``)."""
    env = Environment()
    disk = Disk(env, DiskParams())
    vmm = VirtualMemoryManager(env, PARAMS, disk)
    vmm.register_process(1, 2 * DEMAND.size)
    vmm.register_process(2, FRAMES)
    drive(env, vmm.touch(1, DEMAND, dirty=True))
    for lo in range(0, DEMAND.size, 32):
        drive(env, vmm.evict_batch(VictimBatch(1, np.arange(lo, lo + 32))))
    drive(env, vmm.touch(2, np.arange(other), dirty=True))
    if deadline is not None:
        vmm.deadlines = SimpleNamespace(bg_arm_at=deadline,
                                        run_cap_at=np.inf, bgwriter=None)
    return env, disk, vmm


def only_pid_1(vmm):
    """A victim selector that never picks pid 2's pages."""
    def select(tables, count, cluster, protect):
        return vmm.policy.select_victims({1: tables[1]}, count, cluster,
                                         protect)
    return select


def fill(other, demand, deadline=np.inf, selector=None):
    """Fault pid 1's ``demand`` in.  Returns the observable outcome, the
    ``(groups, t_end)`` of every eager read run and the ``(t, deficit)``
    of every eager eviction span."""
    env, disk, vmm = node(other, deadline)
    if selector is not None:
        vmm.victim_selector = selector(vmm)
    completions = []
    disk.on_complete = lambda req, t0, t1: completions.append(
        (req.op, req.slots.tolist(), req.pid, t0, t1))
    reads, spans = [], []
    read_run, evict_span = vmm._eager_read_run, vmm._eager_evict_span

    def read_spy(table, pid, plan, start, t, deadline):
        out = read_run(table, pid, plan, start, t, deadline)
        reads.append((out[0], out[1]))
        return out

    def span_spy(pid, span, t):
        spans.append((t, vmm.frames.deficit_to_high(GROUP)))
        return evict_span(pid, span, t)

    vmm._eager_read_run = read_spy
    vmm._eager_evict_span = span_spy
    error = []

    def fault():
        try:
            yield from vmm.touch(1, demand)
        except OutOfFramesError as exc:
            error.append((env.now, str(exc)))

    drive(env, fault())
    vmm.check_invariants()
    t1, t2 = vmm.tables[1], vmm.tables[2]
    outcome = {
        "now": env.now,
        "events_simulated": env.events_simulated,
        "error": error,
        "stats": vmm.stats.snapshot(),
        "frames": vmm.frames.free,
        "present": (t1.present.tolist(), t2.present.tolist()),
        "dirty": (t1.dirty.tolist(), t2.dirty.tolist()),
        "last_ref": (t1.last_ref.tolist(), t2.last_ref.tolist()),
        "swap_slot": (t1.swap_slot.tolist(), t2.swap_slot.tolist()),
        "evicted_at": (vmm._evicted_at[1].tolist(),
                       vmm._evicted_at[2].tolist()),
        "disk": (disk.total_requests, dict(disk.total_pages),
                 disk.total_seeks, disk.total_busy_s, disk._head),
        "completions": completions,
    }
    return outcome, reads, spans


def reference(other, demand, selector=None):
    """The oracle's outcome, with the ``events_simulated`` of the fast
    path run with no window."""
    set_fast_path_enabled(False)
    try:
        outcome, reads, spans = fill(other, demand, None, selector)
    finally:
        set_fast_path_enabled(True)
    dispatched, reads_d, spans_d = fill(other, demand, None, selector)
    assert reads == spans == reads_d == spans_d == []
    outcome["events_simulated"] = dispatched["events_simulated"]
    assert dispatched == outcome
    return outcome


@pytest.mark.parametrize("past", [False, True], ids=["at", "past"])
def test_reclaim_episode_whose_bound_reaches_the_deadline(past):
    # free room for four groups, then the fifth needs a reclaim episode
    _, reads, spans = fill(CROWDED, DEMAND)
    t_e, deficit = spans[0]
    assert reads[0] == (4, t_e)
    p = DiskParams()
    bound = t_e + deficit * (p.overhead_s + p.positioning_s
                             + p.page_transfer_s)
    deadline = np.nextafter(bound, np.inf) if past else bound
    fast, reads, spans = fill(CROWDED, DEMAND, deadline)
    assert reads[0] == (4, t_e)
    if past:
        assert spans[0] == (t_e, deficit)  # the episode ran in the window
    else:
        assert spans == []  # handed back before the episode
    assert fast == reference(CROWDED, DEMAND)


def test_nothing_evictable_raises_after_the_resync():
    fast, reads, spans = fill(CROWDED, DEMAND, selector=only_pid_1)
    # four groups read in the window; the fifth finds pid 1's resident
    # pages all demanded and pid 2's out of the selector's reach
    assert reads == [(4, fast["error"][0][0])]
    assert spans == []
    assert "nothing is evictable" in fast["error"][0][1]
    assert fast == reference(CROWDED, DEMAND, selector=only_pid_1)


@pytest.mark.parametrize("past", [False, True], ids=["at", "past"])
def test_zero_fill_delay_that_reaches_the_deadline(past):
    _, reads, _ = fill(0, WITH_ZERO_FILL)
    groups, t_r = reads[0]
    assert groups == 4  # the run stops at the zero-fill group
    bound = t_r + GROUP * PARAMS.minor_fault_s
    deadline = np.nextafter(bound, np.inf) if past else bound
    fast, reads, _ = fill(0, WITH_ZERO_FILL, deadline)
    if past:
        # the zero fill is applied, and no read after it fits
        assert reads == [(4, t_r), (0, bound)]
    else:
        assert reads == [(4, t_r)]
    assert fast == reference(0, WITH_ZERO_FILL)


def test_a_fragment_that_yields_inside_a_window_raises():
    env, _, vmm = node(CROWDED, np.inf)

    def dispatching_reclaim(count, protect=None, priority=0, *, window=None):
        yield env.timeout(1.0)
        return 0

    vmm.reclaim = dispatching_reclaim
    with pytest.raises(RuntimeError, match="inside an eager window"):
        drive(env, vmm.touch(1, DEMAND))
