"""The aggressive page-out's address cursor against the full scan.

:class:`ReferencePageOut` keeps ``AggressivePageOut.run`` as it stood
before the cursor: every batch is ``table.resident_pages()[:batch_pages]``,
a scan of the whole table.  The cursor version must pick the same
victims at every batch.  Two checks do that:

* :func:`checked_scans` compares every cursor scan with the full scan at
  the instant it runs;
* each drawn scenario is also run once with the reference and once with
  the cursor, and the two must end in the same table, VMM and disk
  state at the same virtual time.

Scenarios draw the things that move pages under the cursor: faults of
the outgoing process that demand victims (so ``evict_batch`` skips them)
or page evicted pages back in below the cursor, the process exiting
mid-run, a second ``ao`` run on the same table, and a mix of slotless,
dirty and clean pages.
"""

from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AggressivePageOut
from repro.disk import Disk, DiskParams
from repro.disk.device import PRIO_FOREGROUND
from repro.experiments import GangConfig, run_experiment
from repro.mem import MemoryParams, PageTable, VirtualMemoryManager
from repro.mem.replacement import VictimBatch
from repro.sim import Environment


class ReferencePageOut(AggressivePageOut):
    """``AggressivePageOut.run`` before the address cursor (committed
    copy): a full scan of the resident set for every batch."""

    def run(self, out_pid: int, target_free: int):
        vmm = self.vmm
        table = vmm.tables.get(out_pid)
        while vmm.frames.free < target_free:
            if table is None or table.resident_count == 0:
                return
            victims = table.resident_pages()[: self.batch_pages]
            freed = yield from vmm.evict_batch(
                VictimBatch(out_pid, victims), PRIO_FOREGROUND
            )
            self._c_batches.inc()
            self._c_pages.inc(freed)
            if freed == 0:
                settled = vmm.demand_settled(out_pid)
                if settled is None:
                    return
                yield settled


@contextmanager
def checked_scans():
    """Compare every cursor scan with ``resident_pages()[:n]``.  Yields
    a dict counting scans, scans that started above page 0, watches
    that saw a page made resident (``"refaults"``) and watches a later
    one ended (``"stale"``)."""
    counts = {"scans": 0, "cursor": 0, "refaults": 0, "stale": 0}
    lowest = AggressivePageOut._lowest_resident
    since = PageTable.made_resident_since

    def counted_since(table, token):
        low = since(table, token)
        if token != table._watch:
            counts["stale"] += 1
        elif low < table.num_pages:
            counts["refaults"] += 1
        return low

    def checked(self, table, start):
        got = lowest(self, table, start)
        np.testing.assert_array_equal(
            got, table.resident_pages()[: self.batch_pages])
        counts["scans"] += 1
        counts["cursor"] += start > 0
        return got

    with patch.object(AggressivePageOut, "_lowest_resident", checked), \
            patch.object(PageTable, "made_resident_since", counted_since):
        yield counts


# ---------------------------------------------------------------------------
# drawn scenarios: cursor vs reference, scan by scan and end to end
# ---------------------------------------------------------------------------

FRAMES = 1024

SCENARIOS = st.fixed_dictionaries(
    {
        "num_pages": st.integers(64, 640),
        "seed": st.integers(0, 2**31 - 1),
        "batch": st.sampled_from([4, 16, 64, 256]),
        "resident_frac": st.floats(0.2, 1.0),
        "swapped_frac": st.floats(0.0, 0.6),
        "target_extra": st.integers(1, 700),
        # (delay, kind, page-count) of each event landing during ao
        "events": st.lists(
            st.tuples(st.floats(0.0, 0.3),
                      st.sampled_from(["fault", "fault", "exit", "ao2"]),
                      st.integers(1, 96)),
            max_size=6),
    }
)


def run_scenario(params, cls):
    """Build the drawn node, run ``cls``'s ``ao`` with the drawn events
    landing meanwhile, and return the final state."""
    rng = np.random.default_rng(params["seed"])
    env = Environment()
    disk = Disk(env, DiskParams())
    vmm = VirtualMemoryManager(env, MemoryParams(total_frames=FRAMES), disk)
    n = params["num_pages"]
    table = vmm.register_process(1, n)

    def setup():
        touched = np.flatnonzero(rng.random(n) < params["resident_frac"])
        if touched.size == 0:
            touched = np.array([0])
        dirty = rng.random(touched.size) < 0.5
        yield from vmm.touch(1, touched, dirty=dirty)
        # some pages go to swap (clean copies, slots assigned), some of
        # those come back clean with their slot kept; the rest stay
        # slotless
        out = touched[rng.random(touched.size) < params["swapped_frac"]]
        if out.size:
            yield from vmm.evict_batch(VictimBatch(1, out))
            back = out[rng.random(out.size) < 0.5]
            if back.size:
                yield from vmm.touch(1, back)
    env.run(until=env.process(setup()))

    ao = cls(vmm, batch_pages=params["batch"])
    target = min(FRAMES, vmm.frames.free + params["target_extra"])
    outcome = {"errors": []}

    def fault(pages):
        if 1 not in vmm.tables:
            return
        try:
            yield from vmm.touch(1, pages, dirty=True)
        except Exception as exc:  # pragma: no cover - recorded, compared
            outcome["errors"].append(type(exc).__name__)

    def events():
        for delay, kind, count in params["events"]:
            yield env.timeout(delay)
            if kind == "exit":
                if 1 in vmm.tables:
                    vmm.unregister_process(1)
            elif kind == "ao2":
                env.process(cls(vmm, batch_pages=params["batch"]).run(
                    1, target))
            else:
                # the lowest pages: mostly evicted already (a refault
                # below the cursor) or the victims in flight (demanded)
                hi = min(n, 2 * count + 8)
                pages = np.unique(rng.integers(0, hi, size=count))
                env.process(fault(pages))

    env.process(events())
    env.run(until=env.process(ao.run(1, target)))
    env.run()
    return {
        "now": env.now,
        "present": table.present.tolist(),
        "dirty": table.dirty.tolist(),
        "slots": table.swap_slot.tolist(),
        "stats": vmm.stats.snapshot(),
        "free": vmm.frames.free,
        "disk": (disk.total_requests, dict(disk.total_pages),
                 disk.total_seeks),
        "errors": outcome["errors"],
    }


@given(SCENARIOS)
@settings(max_examples=150, deadline=None)
def test_cursor_run_equals_the_full_scan_run(params):
    with checked_scans():
        got = run_scenario(params, AggressivePageOut)
    assert got == run_scenario(params, ReferencePageOut)


def test_drawn_scenarios_exercise_the_cursor():
    # hand-picked scenarios, so the test above is not vacuous: faults
    # land below the cursor, and a second run on the table takes the
    # watch over (both runs then scan from page 0)
    params = {"num_pages": 600, "seed": 7, "batch": 16,
              "resident_frac": 0.9, "swapped_frac": 0.3,
              "target_extra": 600,
              "events": [(0.0, "fault", 40), (0.02, "fault", 8),
                         (0.3, "fault", 64)]}
    with checked_scans() as counts:
        got = run_scenario(params, AggressivePageOut)
    assert counts["cursor"] > 30 and counts["refaults"] >= 5
    assert counts["stale"] == 0
    assert got == run_scenario(params, ReferencePageOut)
    params["events"].insert(2, (0.05, "ao2", 1))
    with checked_scans() as counts:
        got = run_scenario(params, AggressivePageOut)
    assert counts["stale"] > 30
    assert got == run_scenario(params, ReferencePageOut)


# ---------------------------------------------------------------------------
# the proof's pieces, one at a time
# ---------------------------------------------------------------------------

def make_node(num_pages=256):
    env = Environment()
    disk = Disk(env, DiskParams())
    vmm = VirtualMemoryManager(env, MemoryParams(total_frames=512), disk)
    table = vmm.register_process(1, num_pages)
    return env, disk, vmm, table


def test_make_resident_lowers_the_watched_mark():
    env, disk, vmm, t = make_node()
    watch = t.watch_made_resident()
    assert t.made_resident_since(watch) == t.num_pages
    t.make_resident(np.array([40, 12, 90]))
    assert t.made_resident_since(watch) == 12
    t.make_resident(np.array([30]))
    assert t.made_resident_since(watch) == 12


def test_a_later_watch_ends_the_earlier_one():
    # two ao runs on one table: the first run's cursor can no longer be
    # trusted, so it learns nothing (0) and scans from page 0
    env, disk, vmm, t = make_node()
    first = t.watch_made_resident()
    second = t.watch_made_resident()
    t.make_resident(np.array([100]))
    assert t.made_resident_since(first) == 0
    assert t.made_resident_since(second) == 100


def test_demanded_victims_are_scanned_again_first():
    env, disk, vmm, t = make_node()

    def setup():
        yield from vmm.touch(1, np.arange(128), dirty=True)
    env.run(until=env.process(setup()))
    # an in-flight fault demands pages 2 and 3 (resident) plus one
    # zero-fill page that keeps it in flight
    fault = env.process(vmm.touch(1, np.array([2, 3, 200])))
    env.step()
    ao = AggressivePageOut(vmm, batch_pages=16)
    with checked_scans() as counts:
        env.run(until=env.process(ao.run(1, vmm.frames.free + 40)))
    assert not fault.is_alive or fault.triggered
    assert counts["cursor"] >= 2
    vmm.check_invariants()


def test_refault_below_the_cursor_is_found():
    env, disk, vmm, t = make_node()

    def setup():
        yield from vmm.touch(1, np.arange(128), dirty=True)
    env.run(until=env.process(setup()))
    ao = AggressivePageOut(vmm, batch_pages=16)
    p = env.process(ao.run(1, vmm.frames.free + 96))

    def refault():
        # after a few batches page 0 is on swap; bring it back in while
        # ao is still running above it
        while t.present[0]:
            yield env.timeout(1e-3)
        yield from vmm.touch(1, np.array([0, 1]))
    env.process(refault())
    with checked_scans() as counts:
        env.run(until=p)
    assert counts["scans"] >= 6
    assert not t.present[0]  # the refaulted page was picked again
    vmm.check_invariants()


def test_exit_mid_run_ends_the_run():
    env, disk, vmm, t = make_node()

    def setup():
        yield from vmm.touch(1, np.arange(128), dirty=True)
    env.run(until=env.process(setup()))
    ao = AggressivePageOut(vmm, batch_pages=16)
    p = env.process(ao.run(1, vmm.frames.free + 96))

    def exit_():
        yield env.timeout(0.02)
        vmm.unregister_process(1)
    env.process(exit_())
    with checked_scans():
        env.run(until=p)
    assert 1 not in vmm.tables
    assert vmm.frames.free == vmm.frames.total


def test_gang_runs_with_the_cursor_match_the_scan():
    # every ao batch of real switches, under the operating point's
    # policy and with ao alone
    for policy in ("so/ao/ai/bg", "ao"):
        with checked_scans() as counts:
            run_experiment(GangConfig("LU", "C", nprocs=2, policy=policy,
                                      scale=0.1, seed=1))
        assert counts["cursor"] > counts["scans"] // 2
