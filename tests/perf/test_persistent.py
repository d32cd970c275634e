"""The persistent warm-worker executor (repro.perf.persistent): the
spec table round trip, the work-stealing scheduler, warm worker reuse,
and sweep-generation hygiene."""

import pickle

from repro.perf import Cell, run_cells
from repro.perf.persistent import (
    SpecTable,
    StealScheduler,
    get_default_executor,
    start_method,
)

from tests.perf import _backend_cells as bc


def make_grid(n=6):
    return [Cell(("sq", i), bc.square, {"x": i}) for i in range(n)]


# ---------------------------------------------------------------------------
# spec table round trip
# ---------------------------------------------------------------------------
def test_spec_roundtrip():
    cells = make_grid(5)
    table = SpecTable(cells)
    assert len(table.blobs) == 5
    assert table.nbytes == sum(
        len(pickle.dumps((c.key, c.fn, c.kwargs), protocol=5))
        for c in cells)
    for blob, cell in zip(table.blobs, cells):
        key, fn, kwargs = pickle.loads(blob)
        assert key == cell.key
        assert fn is bc.square  # same module-level function
        assert kwargs == cell.kwargs


# ---------------------------------------------------------------------------
# work-stealing scheduler
# ---------------------------------------------------------------------------
def test_lpt_assignment_is_deterministic():
    costs = {0: 5.0, 1: 4.0, 2: 3.0, 3: 2.0, 4: 2.0, 5: 1.0}
    a = StealScheduler([10, 11], cost=costs.get)
    b = StealScheduler([10, 11], cost=costs.get)
    a.extend(range(6))
    b.extend(range(6))
    # LPT: 0(5)->w10, 1(4)->w11, 2(3)->w11? loads 5 vs 4 -> w11,
    # 3(2)->w11 has 7 -> w10(5), 4(2)->w10(7)=w11(7) tie -> w10? ...
    # exact schedule aside, two identical builds must agree cell by cell
    order_a = [a.next_for(w) for w in (10, 11, 10, 11, 10, 11)]
    order_b = [b.next_for(w) for w in (10, 11, 10, 11, 10, 11)]
    assert order_a == order_b
    assert sorted(i for i in order_a if i is not None) == list(range(6))


def test_idle_worker_steals_from_victims_tail():
    costs = {0: 10.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}
    sched = StealScheduler([0, 1], cost=costs.get)
    sched.extend(range(5))
    # LPT: cell 0 (cost 10) alone on worker 0; 1..4 pile on worker 1
    assert sched.next_for(0) == 0
    assert sched.next_for(1) == 1  # own head
    # worker 0 finishes its big cell; its deque is empty -> steal the
    # *tail* of worker 1 (the smallest remaining item under LPT order)
    stolen = sched.next_for(0)
    assert stolen == 4
    assert sched.steals == 1
    assert sched.next_for(1) == 2  # victim's head undisturbed
    assert len(sched) == 1


def test_replace_worker_hands_over_queue():
    sched = StealScheduler([0, 1])
    sched.extend(range(4))
    sched.replace_worker(1, 7)
    drained = []
    while True:
        i = sched.next_for(7)
        if i is None:
            break
        drained.append(i)
    assert sorted(drained) == list(range(4))  # own queue + steals


def test_push_front_priority():
    sched = StealScheduler([0])
    sched.extend([1, 2])
    sched.push_front(9)
    assert sched.next_for(0) == 9


# ---------------------------------------------------------------------------
# warm executor
# ---------------------------------------------------------------------------
def test_workers_stay_warm_across_sweeps():
    executor = get_default_executor()
    cells = make_grid(6)
    run_cells(cells, jobs=2)
    pids_before = executor.worker_pids()
    sweeps_before = executor.stats["sweeps"]
    dispatches_before = executor.stats["dispatches"]
    run_cells(cells, jobs=2)
    pids_after = executor.worker_pids()
    # same processes served both sweeps — the whole point
    assert set(pids_before.items()) <= set(pids_after.items())
    assert executor.stats["sweeps"] == sweeps_before + 1
    assert executor.stats["dispatches"] == dispatches_before + len(cells)


def test_worker_annotation_only_inside_existing_perf():
    plain = [Cell(("sq", i), bc.square, {"x": i}) for i in range(4)]
    merged = run_cells(plain, jobs=2)
    # plain results stay byte-identical to serial: no quarantine added
    assert all("_perf" not in r for r in merged.values())

    tagged = [Cell(("p", i), bc.perf_cell, {"x": i}) for i in range(4)]
    merged = run_cells(tagged, jobs=2)
    wids = {r["_perf"]["worker"] for r in merged.values()}
    assert wids  # every cell records which worker ran it
    assert all(isinstance(w, int) for w in wids)
    assert all(r["_perf"]["from_cell"] for r in merged.values())


def test_abandoned_sweep_results_are_dropped_by_generation():
    executor = get_default_executor()
    slow = [Cell(("slow", 0), bc.sq_delay, {"x": 1, "delay_s": 0.4})]
    gen, wids = executor.begin_sweep(slow, jobs=1)
    executor.dispatch(wids[0], 0, 0)
    stale_before = executor.stats["stale_results"]
    # abandon that sweep mid-flight; the busy worker is left draining
    # and a fresh one serves the new sweep
    merged = run_cells(make_grid(4), jobs=2)
    assert [r["sq"] for r in merged.values()] == [0, 1, 4, 9]
    # the old sweep's late result must be recognised and dropped
    deadline = 50
    while executor.stats["stale_results"] == stale_before and deadline:
        executor.poll(0.1)
        deadline -= 1
    assert executor.stats["stale_results"] == stale_before + 1


def test_start_method_default():
    assert start_method() in ("forkserver", "spawn")
