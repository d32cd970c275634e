"""Unit tests for disk dispatch disciplines (SSTF / C-SCAN)."""

import numpy as np
import pytest

from repro.disk import Disk, DiskParams
from repro.sim import Environment


def make(discipline):
    env = Environment()
    disk = Disk(env, DiskParams(discipline=discipline))
    return env, disk


def completion_order(env, disk, requests):
    order = []
    for tag, req in requests:
        req.callbacks.append(lambda ev, t=tag: order.append(t))
    env.run()
    return order


def test_unknown_discipline_rejected():
    with pytest.raises(ValueError, match="unknown discipline"):
        DiskParams(discipline="elevator9000")


def test_fifo_mode_behaves_like_base_disk():
    env, disk = make("fifo")
    reqs = [(i, disk.submit(np.array([i * 100]), "read")) for i in range(4)]
    assert completion_order(env, disk, reqs) == [0, 1, 2, 3]


def test_sstf_picks_nearest_first():
    env, disk = make("sstf")
    # first request pins the head near slot 1000 (run to completion so
    # the head position is established before the contenders queue)
    first = disk.submit(np.arange(995, 1000), "read")
    env.run(until=first)
    reqs = [
        ("far", disk.submit(np.array([5000]), "read")),
        ("near", disk.submit(np.array([1010]), "read")),
        ("mid", disk.submit(np.array([2500]), "read")),
    ]
    order = completion_order(env, disk, reqs)
    assert order == ["near", "mid", "far"]


def test_cscan_sweeps_upward_then_wraps():
    env, disk = make("cscan")
    first = disk.submit(np.arange(1995, 2000), "read")  # head -> 2000
    env.run(until=first)
    reqs = [
        ("below", disk.submit(np.array([100]), "read")),
        ("above_far", disk.submit(np.array([9000]), "read")),
        ("above_near", disk.submit(np.array([2100]), "read")),
    ]
    order = completion_order(env, disk, reqs)
    assert order == ["above_near", "above_far", "below"]


def test_deferred_first_pick_is_urgent():
    """An idle elevator's first pick runs before the normal-priority
    events already due at the same instant, as a newly started process
    would: a submit they make arrives too late to be picked first."""
    env, disk = make("sstf")
    reqs = {}

    def submitter(tag, slot):
        yield env.timeout(1.0)
        reqs[tag] = disk.submit(np.array([slot]), "read")

    env.process(submitter("far", 5000))
    env.process(submitter("near", 10))
    env.run()
    assert reqs["far"].completed_at < reqs["near"].completed_at


def test_priority_still_dominates_position():
    env, disk = make("sstf")
    first = disk.submit(np.arange(0, 64), "read")  # occupy
    reqs = [
        ("bg_near", disk.submit(np.array([70]), "write", priority=10)),
        ("fg_far", disk.submit(np.array([90000]), "read", priority=0)),
    ]
    order = completion_order(env, disk, reqs)
    assert order == ["fg_far", "bg_near"]


def test_cancelled_requests_skipped():
    env, disk = make("sstf")
    first = disk.submit(np.arange(0, 64), "read")
    doomed = disk.submit(np.array([70]), "read")
    keeper = disk.submit(np.array([500]), "read")
    assert doomed.cancel()
    env.run()
    assert not doomed.triggered
    assert keeper.triggered
    assert disk.total_requests == 2


def test_statistics_and_hooks_still_work():
    events = []
    env = Environment()
    disk = Disk(
        env, DiskParams(discipline="cscan"),
        on_complete=lambda req, s, e: events.append(req.op),
    )
    disk.submit(np.arange(0, 8), "read")
    disk.submit(np.arange(100, 108), "write")
    env.run()
    assert disk.total_requests == 2
    assert disk.total_pages == {"read": 8, "write": 8}
    assert sorted(events) == ["read", "write"]


def test_sstf_reduces_total_seek_time_vs_fifo():
    """With a distance-dependent arm model, position-aware dispatch
    must beat FIFO on a scattered queue."""
    def run(discipline):
        env = Environment()
        disk = Disk(env, DiskParams(seek_distance_coef_s=5e-5,
                                    discipline=discipline))
        rng = np.random.default_rng(5)
        starts = rng.integers(0, 200000, 64)
        for s in starts:
            disk.submit(np.arange(s, s + 8), "read")
        env.run()
        return env.now

    assert run("sstf") < run("fifo")
    assert run("cscan") < run("fifo")


def test_distance_coefficient_changes_cost():
    flat = DiskParams(discipline="fifo")
    dist = DiskParams(seek_distance_coef_s=1e-4, discipline="fifo")
    env1 = Environment()
    d1 = Disk(env1, flat)
    r1 = d1.submit(np.array([100000]), "read")
    env1.run()
    env2 = Environment()
    d2 = Disk(env2, dist)
    r2 = d2.submit(np.array([100000]), "read")
    env2.run()
    expected_extra = 1e-4 * np.sqrt(100000)
    assert r2.service_time == pytest.approx(
        r1.service_time + expected_extra
    )


def test_queue_length_in_scheduled_mode():
    env, disk = make("sstf")
    disk.submit(np.arange(0, 64), "read")
    disk.submit(np.array([100]), "read")
    disk.submit(np.array([200]), "read")
    assert disk.queue_length == 3
    env.run()
    assert disk.queue_length == 0
