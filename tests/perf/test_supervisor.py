"""Supervised sweep execution (repro.perf.supervisor): retries,
deadlines, worker respawns, poison-cell quarantine, checkpoint/resume,
and the fault-injected identity guarantee."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import multi_seed
from repro.experiments.report_io import _sanitise
from repro.experiments.runner import GangConfig
from repro.faults.worker import WorkerFaultPlan
from repro.perf import (
    Cell,
    CellCache,
    FAILED_KEY,
    QuarantinedCells,
    Supervisor,
    SupervisorConfig,
    SweepJournal,
    fingerprint,
    quarantined,
    require_ok,
    run_cells,
    set_default_cache,
    set_default_supervisor,
    sweep_id,
)
from repro.obs import Registry, SweepObserver
from repro.obs.export import summary as registry_summary
from repro.obs.sweep import merge_summaries


@pytest.fixture(autouse=True)
def _no_process_defaults(fast_supervisor):
    set_default_cache(None)
    set_default_supervisor(None)
    yield
    set_default_cache(None)
    set_default_supervisor(None)


# Cell functions must be module-level so workers can unpickle them.
def square(x):
    return {"x": x, "sq": x * x}


def boom():
    raise RuntimeError("cell failure")


def flaky(counter, fail_times):
    """Fail the first ``fail_times`` attempts, tracked in a file (each
    attempt runs in a fresh worker; only the filesystem persists)."""
    path = Path(counter)
    n = int(path.read_text()) if path.exists() else 0
    path.write_text(str(n + 1))
    if n < fail_times:
        raise RuntimeError(f"flaky attempt {n}")
    return {"ok": True, "ran": n + 1}


def make_squares(n=6):
    return [Cell(("sq", i), square, {"x": i}) for i in range(n)]


def canon(merged):
    """Identity-comparison form: JSON with the reserved ``_perf``
    quarantine stripped (the idiom of test_parallel_equivalence)."""
    strip = {
        k: ({kk: vv for kk, vv in v.items() if kk != "_perf"}
            if isinstance(v, dict) else v)
        for k, v in merged.items()
    }
    return json.dumps(_sanitise(strip), sort_keys=True)


def find_plan(n_cells, max_retries, need, max_faulted=2, **rates):
    """Seed-search a fault plan whose attempt-0 schedule injects every
    kind in ``need`` while every cell keeps enough clean attempts that
    no cell can be quarantined — retries re-draw with their attempt
    number, so later-attempt draws matter as well."""
    for seed in range(2000):
        plan = WorkerFaultPlan(seed=seed, **rates)
        sched = plan.injections(n_cells)
        if not need <= set(sched.values()):
            continue
        if all(sum(plan.decide(i, a) is not None
                   for a in range(max_retries + 1)) <= max_faulted
               for i in range(n_cells)):
            return plan
    raise AssertionError("no suitable fault seed in search window")


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError, match="max_retries"):
        SupervisorConfig(max_retries=-1)
    with pytest.raises(ValueError, match="cell_timeout_s"):
        SupervisorConfig(cell_timeout_s=0.0)
    assert SupervisorConfig(resume=True).journaling
    assert SupervisorConfig(journal=True).journaling
    assert not SupervisorConfig().journaling


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------
def test_happy_path_identical_to_serial_run_cells():
    cells = make_squares()
    serial = run_cells(cells, jobs=1)
    sup = Supervisor(SupervisorConfig())
    merged = sup.run(cells, jobs=2)
    assert canon(merged) == canon(serial)
    assert list(merged) == [c.key for c in cells]
    assert sup.stats["completed"] == len(cells)
    assert sup.stats["retries"] == 0
    assert sup.stats["respawns"] == 0
    assert sup.stats["quarantined"] == 0


def test_supervised_jobs_one_still_isolated():
    # jobs=1 supervises one persistent worker: isolation is what makes
    # crash containment possible, so even "serial" supervision uses a
    # worker
    sup = Supervisor(SupervisorConfig())
    merged = sup.run(make_squares(3), jobs=1)
    assert [merged[("sq", i)]["sq"] for i in range(3)] == [0, 1, 4]


def test_jobs_and_key_validation():
    sup = Supervisor(SupervisorConfig())
    with pytest.raises(ValueError, match="jobs"):
        sup.run(make_squares(2), jobs=0)
    dup = [Cell("same", square, {"x": 1}), Cell("same", square, {"x": 2})]
    with pytest.raises(ValueError, match="duplicate cell key"):
        sup.run(dup)
    assert sup.run([], jobs=3) == {}


def test_counters_reach_obs_registry():
    reg = Registry()
    sup = Supervisor(SupervisorConfig(), obs=reg)
    sup.run(make_squares(3), jobs=2)
    assert reg.value("supervisor_completed") == 3
    assert reg.value("supervisor_respawns") == 0


def test_run_cells_uses_default_and_explicit_supervisor():
    sup = Supervisor(SupervisorConfig())
    set_default_supervisor(sup)
    run_cells(make_squares(2))
    assert sup.stats["completed"] == 2
    set_default_supervisor(None)
    explicit = Supervisor(SupervisorConfig())
    run_cells(make_squares(2), supervisor=explicit)
    assert explicit.stats["completed"] == 2
    assert sup.stats["completed"] == 2  # untouched once uninstalled


# ---------------------------------------------------------------------------
# retries and quarantine
# ---------------------------------------------------------------------------
def test_cell_exception_retried_then_succeeds(tmp_path):
    counter = tmp_path / "attempts"
    cells = [Cell("flaky", flaky,
                  {"counter": str(counter), "fail_times": 2})]
    sup = Supervisor(SupervisorConfig(max_retries=3))
    merged = sup.run(cells)
    assert merged["flaky"]["ok"] is True
    assert merged["flaky"]["ran"] == 3
    assert sup.stats["retries"] == 2
    assert sup.stats["completed"] == 1
    assert sup.stats["quarantined"] == 0


def test_poison_cell_quarantined_with_full_forensics():
    cells = [Cell(("sq", 0), square, {"x": 3}),
             Cell("bad", boom, {}),
             Cell(("sq", 1), square, {"x": 4})]
    sup = Supervisor(SupervisorConfig(max_retries=2))
    merged = sup.run(cells, jobs=2)
    # the sweep survives: healthy cells complete, order is preserved
    assert list(merged) == [("sq", 0), "bad", ("sq", 1)]
    assert merged[("sq", 0)]["sq"] == 9
    assert merged[("sq", 1)]["sq"] == 16
    failure = merged["bad"][FAILED_KEY]
    assert failure["key"] == repr("bad")
    assert failure["attempts"] == 3  # 1 initial + 2 retries
    assert failure["error"] == "RuntimeError: cell failure"
    assert failure["errors"] == ["RuntimeError: cell failure"] * 3
    assert len(failure["attempt_s"]) == 3
    assert all(t >= 0 for t in failure["attempt_s"])
    assert quarantined(merged) == {"bad": failure}
    assert sup.stats["quarantined"] == 1
    assert sup.stats["retries"] == 2
    assert sup.stats["completed"] == 2


def test_max_retries_zero_quarantines_on_first_failure():
    sup = Supervisor(SupervisorConfig(max_retries=0))
    merged = sup.run([Cell("bad", boom, {})])
    assert merged["bad"][FAILED_KEY]["attempts"] == 1
    assert sup.stats["retries"] == 0


def test_quarantined_helper_ignores_healthy_results():
    assert quarantined({"a": {"x": 1}, "b": 7, "c": None}) == {}


def test_require_ok_passes_healthy_and_names_poisoned_cells():
    healthy = {"a": {"x": 1}}
    assert require_ok(healthy) is healthy
    sup = Supervisor(SupervisorConfig(max_retries=0))
    merged = sup.run([Cell(("sq", 0), square, {"x": 2}),
                      Cell("bad", boom, {})])
    with pytest.raises(QuarantinedCells, match="demo sweep") as exc:
        require_ok(merged, context="demo sweep")
    assert "'bad'" in str(exc.value)
    assert "RuntimeError: cell failure" in str(exc.value)
    assert "1 attempt" in str(exc.value)
    assert exc.value.failures == quarantined(merged)


# ---------------------------------------------------------------------------
# worker crashes and respawns
# ---------------------------------------------------------------------------
def test_injected_crash_mid_sweep_rebuilds_and_matches_serial():
    cells = make_squares(8)
    plan = find_plan(len(cells), max_retries=5, need={"crash"},
                     crash_rate=0.3)
    serial = run_cells(cells, jobs=1)
    sup = Supervisor(SupervisorConfig(max_retries=5, worker_faults=plan))
    merged = sup.run(cells, jobs=2)
    assert canon(merged) == canon(serial)
    assert sup.stats["respawns"] >= 1
    assert sup.stats["retries"] >= 1
    assert sup.stats["quarantined"] == 0
    assert sup.stats["completed"] == len(cells)


def test_crash_on_every_attempt_quarantines_not_raises():
    plan = WorkerFaultPlan(crash_rate=1.0, seed=0)
    sup = Supervisor(SupervisorConfig(max_retries=1, worker_faults=plan))
    merged = sup.run([Cell("doomed", square, {"x": 1})])
    failure = merged["doomed"][FAILED_KEY]
    assert "worker crashed" in failure["error"]
    assert failure["attempts"] == 2
    assert sup.stats["respawns"] == 2
    assert sup.stats["quarantined"] == 1


# ---------------------------------------------------------------------------
# hung workers: deadline watchdog, grace extension, rescheduling
# ---------------------------------------------------------------------------
def test_hung_worker_cancelled_and_rescheduled():
    cells = make_squares(5)
    plan = find_plan(len(cells), max_retries=5, need={"hang"},
                     hang_rate=0.4, hang_s=60.0)
    serial = run_cells(cells, jobs=1)
    sup = Supervisor(SupervisorConfig(max_retries=5, cell_timeout_s=0.25,
                                      worker_faults=plan))
    t0 = time.monotonic()
    merged = sup.run(cells, jobs=2)
    elapsed = time.monotonic() - t0
    # the 60 s hang was cancelled by the watchdog, not waited out
    assert elapsed < 30.0
    assert canon(merged) == canon(serial)
    assert sup.stats["timeouts"] >= 1
    assert sup.stats["deadline_extensions"] >= 1  # one grace, then axed
    assert sup.stats["respawns"] >= 1
    assert sup.stats["quarantined"] == 0
    assert sup.stats["completed"] == len(cells)


def test_slow_start_injection_is_survivable():
    cells = make_squares(4)
    plan = WorkerFaultPlan(slow_start_rate=1.0, slow_start_s=0.01)
    sup = Supervisor(SupervisorConfig(worker_faults=plan))
    merged = sup.run(cells, jobs=2)
    assert canon(merged) == canon(run_cells(cells, jobs=1))
    assert sup.stats["retries"] == 0


# ---------------------------------------------------------------------------
# deadline policy (unit level)
# ---------------------------------------------------------------------------
def test_deadline_adaptive_clamp_and_cap_fallback():
    from repro.perf.supervisor import (TIMEOUT_CAP_S, TIMEOUT_FLOOR_S,
                                       TIMEOUT_MULTIPLIER, _CellState)

    sup = Supervisor(SupervisorConfig())
    st = _CellState(0, Cell("k", square, {"x": 1}), "fp")
    st.submitted_at = 1000.0
    # before any completion: the cap itself arms the watchdog
    assert sup._deadline(st) == (TIMEOUT_CAP_S, 1000.0 + TIMEOUT_CAP_S)
    sup._observe(0.01)
    assert sup._deadline(st)[0] == TIMEOUT_FLOOR_S  # floor clamp
    sup._estimate = 5.0
    assert sup._deadline(st)[0] == TIMEOUT_MULTIPLIER * 5.0
    sup._estimate = 10 * TIMEOUT_CAP_S
    assert sup._deadline(st)[0] == TIMEOUT_CAP_S  # cap clamp


def test_timeout_kill_escalates_budget_past_cap():
    from repro.perf.supervisor import _CellState

    sup = Supervisor(SupervisorConfig(cell_timeout_s=1.0))
    st = _CellState(0, Cell("k", square, {"x": 1}), "fp")
    assert sup._deadline(st)[0] == 1.0
    st.timeout_kills = 2
    # a merely-slow cell converges to a budget it fits in
    assert sup._deadline(st)[0] == 4.0


def test_cost_estimate_is_ema():
    sup = Supervisor(SupervisorConfig())
    sup._observe(1.0)
    assert sup._estimate == 1.0
    sup._observe(2.0)
    assert sup._estimate == pytest.approx(0.7 * 1.0 + 0.3 * 2.0)


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------
def test_journal_written_and_resume_skips_completed(tmp_path):
    cells = make_squares(5)
    first = Supervisor(SupervisorConfig(journal=True, journal_dir=tmp_path))
    merged = first.run(cells, jobs=2)
    prints = [fingerprint(c.fn, c.kwargs) for c in cells]
    journal = SweepJournal(sweep_id(prints), root=tmp_path)
    assert journal.completed() == set(prints)

    again = Supervisor(SupervisorConfig(resume=True, journal_dir=tmp_path))
    resumed = again.run(cells, jobs=2)
    assert again.stats["resumed"] == len(cells)
    assert again.stats["completed"] == 0
    assert canon(resumed) == canon(merged)
    # resumed results are served from the store, annotated like cache hits
    assert resumed[("sq", 0)]["_perf"]["cache"] == "hit"


def test_resume_reexecutes_failed_and_missing_cells(tmp_path):
    cells = [Cell(("sq", 0), square, {"x": 2}), Cell("bad", boom, {})]
    first = Supervisor(SupervisorConfig(journal=True, journal_dir=tmp_path,
                                        max_retries=0))
    first.run(cells)
    # quarantined cells journal as "failed": a resume retries them (a
    # crashed host is exactly when the failure may not be the cell's)
    again = Supervisor(SupervisorConfig(resume=True, journal_dir=tmp_path,
                                        max_retries=0))
    merged = again.run(cells)
    assert again.stats["resumed"] == 1
    assert again.stats["quarantined"] == 1
    assert FAILED_KEY in merged["bad"]


def test_resume_with_vanished_store_reexecutes(tmp_path):
    cells = make_squares(3)
    prints = [fingerprint(c.fn, c.kwargs) for c in cells]
    first = Supervisor(SupervisorConfig(journal=True, journal_dir=tmp_path))
    first.run(cells)
    store = CellCache(root=tmp_path / f"{sweep_id(prints)}.store")
    assert store.clear() == 3  # simulate a lost result store
    again = Supervisor(SupervisorConfig(resume=True, journal_dir=tmp_path))
    merged = again.run(cells)
    # the journal is an index, the store is the source of truth
    assert again.stats["resumed"] == 0
    assert again.stats["completed"] == 3
    assert merged[("sq", 2)]["sq"] == 4


def test_active_cache_is_the_resume_store(tmp_path):
    cells = make_squares(4)
    cache = CellCache(root=tmp_path / "cellcache")
    first = Supervisor(SupervisorConfig(journal=True,
                                        journal_dir=tmp_path / "j"))
    first.run(cells, jobs=2, cache=cache)
    assert cache.stores == 4
    # no <sweep>.store directory: the cache *is* the store (composition)
    assert not list((tmp_path / "j").glob("*.store"))
    again = Supervisor(SupervisorConfig(resume=True,
                                        journal_dir=tmp_path / "j"))
    again.run(cells, cache=cache)
    assert again.stats["resumed"] == 4


def test_cache_hits_are_journaled_for_later_resume(tmp_path):
    cells = make_squares(3)
    prints = [fingerprint(c.fn, c.kwargs) for c in cells]
    cache = CellCache(root=tmp_path / "cellcache")
    run_cells(cells, cache=cache)  # warm the cache, no journal yet
    sup = Supervisor(SupervisorConfig(journal=True,
                                      journal_dir=tmp_path / "j"))
    sup.run(cells, cache=cache)
    journal = SweepJournal(sweep_id(prints), root=tmp_path / "j")
    entries = journal.load()
    assert journal.completed() == set(prints)
    # served from cache, never executed: journaled with attempts=0
    assert all(e["attempts"] == 0 for e in entries.values())
    assert sup.stats["completed"] == 0


# ---------------------------------------------------------------------------
# kill-then-resume integration: only incomplete cells re-execute
# ---------------------------------------------------------------------------
def _fail_if_sources_changed(jdir, journal):
    """The child computes its sweep id from its own ``code_version``.
    A journal under another id means a ``repro`` source changed between
    this process's hash and the child's, not that the sweep failed."""
    others = [p.name for p in jdir.glob("*.jsonl") if p != journal.path]
    if others:
        pytest.fail(
            "sources changed during the test run: the child journaled "
            f"{others}, this process expects {journal.path.name}"
        )


def test_sigkill_then_resume_reexecutes_only_incomplete(tmp_path):
    from tests.perf import _resume_cells as rc

    n, delay = 5, 0.3
    jdir = tmp_path / "journal"
    pings = tmp_path / "pings"
    pings.mkdir()
    repo = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src"), str(repo)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.Popen(
        [sys.executable, "-c",
         "from tests.perf import _resume_cells as rc; "
         f"rc.run_sweep({str(jdir)!r}, jobs=1, delay_s={delay}, "
         f"n={n}, ping_dir={str(pings)!r})"],
        cwd=str(repo), env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    cells = rc.make_cells(n, delay, ping_dir=str(pings))
    prints = [fingerprint(c.fn, c.kwargs) for c in cells]
    journal = SweepJournal(sweep_id(prints), root=jdir)
    try:
        # wait until at least two cells are journaled, then pull the plug
        deadline = time.monotonic() + 60.0
        while len(journal.completed()) < 2:
            if child.poll() is not None:
                _fail_if_sources_changed(jdir, journal)
            assert child.poll() is None, (
                f"child sweep exited early (exit code {child.returncode})"
            )
            assert time.monotonic() < deadline, "child sweep too slow"
            time.sleep(0.02)
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait()
    time.sleep(0.8)  # let any orphaned worker drain and exit

    done_before = journal.completed()
    assert 0 < len(done_before) < n
    for ping in pings.glob("*.ping"):
        ping.unlink()

    merged, sup = rc.run_sweep(str(jdir), jobs=1, delay_s=delay, n=n,
                               ping_dir=str(pings))
    # only the incomplete cells re-executed...
    assert sup.stats["resumed"] == len(done_before)
    assert sup.stats["completed"] == n - len(done_before)
    reran = {p.stem for p in pings.glob("*.ping")}
    expected_rerun = {cells[i].kwargs["tag"] for i in range(n)
                      if prints[i] not in done_before}
    assert reran == expected_rerun
    # ...and the merged record is identical to an uninterrupted serial
    # run of the same sweep
    serial = run_cells(rc.make_cells(n, delay, ping_dir=""), jobs=1)
    assert canon(merged) == canon(serial)
    assert quarantined(merged) == {}
    assert journal.completed() == set(prints)


# ---------------------------------------------------------------------------
# acceptance: chaos sweep byte-identical to fault-free serial run
# ---------------------------------------------------------------------------
def find_chaos_plan(n_cells):
    """Seed-search a plan with at least one crash *and* one hang whose
    retry draws are all clean.  The chaos acceptance test runs it at
    ``jobs=1`` on purpose: with a single slot exactly one cell is ever
    in flight, so the crash/timeout/respawn verdicts below are
    timing-independent even on a heavily loaded host."""
    for seed in range(20000):
        plan = WorkerFaultPlan(crash_rate=0.15, hang_rate=0.1,
                               hang_s=60.0, seed=seed)
        sched = plan.injections(n_cells)
        kinds = set(sched.values())
        if not {"crash", "hang"} <= kinds:
            continue
        if any(plan.decide(i, a) is not None
               for i in sched for a in (1, 2)):
            continue
        return plan
    raise AssertionError("no suitable chaos seed in search window")


def test_chaos_sweep_identical_to_fault_free_serial():
    cells = make_squares(10)
    plan = find_chaos_plan(len(cells))
    serial = run_cells(cells, jobs=1)
    sup = Supervisor(SupervisorConfig(max_retries=3, cell_timeout_s=0.25,
                                      worker_faults=plan))
    merged = sup.run(cells, jobs=1)
    assert canon(merged) == canon(serial)
    assert sup.stats["quarantined"] == 0
    # every crash kills the sole worker and every hang is killed by
    # the watchdog, each answered by one respawn, so both chaos paths
    # are provably exercised
    sched = plan.injections(len(cells))
    n_crashes = sum(1 for k in sched.values() if k == "crash")
    n_hangs = sum(1 for k in sched.values() if k == "hang")
    assert sup.stats["respawns"] >= n_crashes + n_hangs >= 2
    assert sup.stats["timeouts"] >= n_hangs >= 1
    assert sup.stats["completed"] == len(cells)


def find_crash_plan(n_cells):
    """Seed-search a crash-only plan: 1-3 crashes at attempt 0 and
    clean draws on attempts 1-5 of every cell, so each crashed cell
    succeeds on its first retry and none can be quarantined.  Crash
    containment does not depend on timing, so the verdicts hold on a
    loaded host at any ``jobs``."""
    for seed in range(50000):
        plan = WorkerFaultPlan(crash_rate=0.1, seed=seed)
        sched = plan.injections(n_cells)
        if not 1 <= len(sched) <= 3:
            continue
        if any(plan.decide(i, a) is not None
               for i in range(n_cells) for a in range(1, 6)):
            continue
        return plan, sched
    raise AssertionError("no suitable chaos seed in search window")


def test_chaos_simulation_sweep_logs_every_fault_and_merges_identically(
        tmp_path):
    # the (seed, mode) grid multi_seed.replicate runs, as records so
    # every cell can be compared and its telemetry summed
    base = GangConfig("LU", "B", nprocs=1, scale=0.05)
    cells = multi_seed.cell_grid(base, "so/ao/ai/bg", (1, 2))
    plan, sched = find_crash_plan(len(cells))
    serial = run_cells(cells, jobs=1)

    sup = Supervisor(SupervisorConfig(
        max_retries=8, worker_faults=plan, journal=True,
        journal_dir=str(tmp_path / "journal")))
    sweep = SweepObserver()
    merged = run_cells(cells, jobs=2, supervisor=sup, sweep_obs=sweep)

    assert canon(merged) == canon(serial)
    # a crash costs exactly the cell its worker held: one respawn each
    assert sup.stats["quarantined"] == 0
    assert sup.stats["respawns"] == len(sched)
    # the event log names every fault the counters count
    counts = sup.events.counts()
    assert counts.get("worker_respawn", 0) == sup.stats["respawns"]
    assert counts.get("retry", 0) == sup.stats["retries"]
    assert all(e.get("key") for e in sup.events.named("retry"))
    # the sweep summary is the sum of the summaries the cells shipped,
    # and the merged registry agrees with it
    per_cell = [r["_perf"]["obs"] for r in merged.values()]
    assert len(per_cell) == len(cells)
    assert sweep.summary() == merge_summaries(per_cell)
    assert registry_summary(sweep.registry)["counters"] == \
        sweep.summary()["counters"]
