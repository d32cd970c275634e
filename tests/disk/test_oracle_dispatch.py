"""The disk unit tests under the scalar oracle.

The disk has one dispatcher, and nothing in it reads the execution
mode.  The other disk modules run on the default fast path; every test
of theirs runs again here with the fast path off, so retry, budget,
spike, cancellation and typed-failure handling are checked in both
modes rather than only through whole-stack identity runs.  The module
also pins the idle-start rule on same-instant submits: an idle FIFO
disk starts the first request at submit, while an idle elevator defers
its first pick so it sees every request of that instant.
"""

import numpy as np
import pytest

from repro.disk import PRIO_BACKGROUND, PRIO_FOREGROUND, Disk, DiskParams
from repro.sim import Environment, set_fast_path_enabled
from tests.disk import test_device, test_device_faults, test_scheduler

MODULES = (test_device, test_device_faults, test_scheduler)
TESTS = [
    (mod, name)
    for mod in MODULES
    for name in sorted(vars(mod))
    if name.startswith("test_") and callable(getattr(mod, name))
]


@pytest.fixture
def oracle():
    set_fast_path_enabled(False)
    yield
    set_fast_path_enabled(True)


@pytest.mark.parametrize(
    "mod, name", TESTS,
    ids=[f"{mod.__name__.rsplit('.', 1)[1]}.{name}" for mod, name in TESTS],
)
def test_under_oracle(mod, name, oracle):
    getattr(mod, name)()


def same_instant_submits(fast, first_priority, second_priority,
                         discipline="fifo"):
    """Completion times and peak depth of a 64-page write and an 8-page
    read (nearer the head) submitted at the same instant to an idle
    disk."""
    set_fast_path_enabled(fast)
    try:
        env = Environment()
        disk = Disk(env, DiskParams(), discipline=discipline)
        write = disk.submit(np.arange(1000, 1064), "write", first_priority)
        read = disk.submit(np.arange(0, 8), "read", second_priority)
        env.run()
    finally:
        set_fast_path_enabled(True)
    return write.completed_at, read.completed_at, disk.max_queue_seen


def test_same_instant_mixed_priority_submits_agree():
    fast = same_instant_submits(True, PRIO_BACKGROUND, PRIO_FOREGROUND)
    oracle = same_instant_submits(False, PRIO_BACKGROUND, PRIO_FOREGROUND)
    assert fast == oracle
    # the background write started at submit, so the foreground read
    # waits behind it despite its priority
    write_done, read_done, depth = fast
    assert write_done < read_done
    assert depth == 2


def test_same_instant_same_priority_submits_agree():
    fast = same_instant_submits(True, PRIO_FOREGROUND, PRIO_FOREGROUND)
    oracle = same_instant_submits(False, PRIO_FOREGROUND, PRIO_FOREGROUND)
    assert fast == oracle
    assert fast[0] < fast[1]


@pytest.mark.parametrize("discipline", ("sstf", "cscan"))
def test_idle_elevator_reorders_same_instant_submits(discipline):
    fast = same_instant_submits(True, PRIO_FOREGROUND, PRIO_FOREGROUND,
                                discipline)
    oracle = same_instant_submits(False, PRIO_FOREGROUND, PRIO_FOREGROUND,
                                  discipline)
    assert fast == oracle
    # the deferred first pick sees both and serves the nearer read first
    write_done, read_done, depth = fast
    assert read_done < write_done
    # both requests wait for the deferred pick and neither is in service
    # before it runs, so the peak depth counts two requests, not three
    assert depth == 2
