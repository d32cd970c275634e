"""Cross-process telemetry capture through the sweep layer: pool
capture/absorb, supervisor event logging, and the CLI surfaces
(``--trace-out`` under ``--jobs N``, event-log rendering, cache hit
rate)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.obs import get_default
from repro.obs.sweep import (
    SweepObserver,
    load_events,
    merge_summaries,
    set_default_sweep,
)
from repro.perf import (
    Cell,
    Supervisor,
    SupervisorConfig,
    run_cells,
    set_default_cache,
    set_default_supervisor,
)
from repro.perf.persistent import shutdown_default_executor


@pytest.fixture(autouse=True)
def _no_process_defaults(fast_supervisor):
    set_default_cache(None)
    set_default_supervisor(None)
    set_default_sweep(None)
    yield
    set_default_cache(None)
    set_default_supervisor(None)
    set_default_sweep(None)


# Cell functions must be module-level so workers can unpickle them.
def telemetric(x):
    obs = get_default()
    obs.counter("cell_work").inc(x)
    obs.histogram("svc").observe(0.5 * x)
    obs.span("switch", "sched", 0.0, float(x))
    return {"x": x, "sq": x * x, "makespan": float(x)}


def flaky(counter, fail_times):
    path = Path(counter)
    n = int(path.read_text()) if path.exists() else 0
    path.write_text(str(n + 1))
    if n < fail_times:
        raise RuntimeError(f"flaky attempt {n}")
    return {"ok": True, "ran": n + 1}


def _cells(n=4):
    return [Cell(("t", i), telemetric, {"x": i + 1}) for i in range(n)]


def _strip_perf(merged):
    return {k: {kk: vv for kk, vv in v.items() if kk != "_perf"}
            for k, v in merged.items()}


# ---------------------------------------------------------------------------
# pool capture
# ---------------------------------------------------------------------------

def test_capture_off_ships_no_payload():
    merged = run_cells(_cells(), jobs=1)
    for r in merged.values():
        assert "obs_snapshot" not in r.get("_perf", {})


@pytest.mark.parametrize("jobs", [1, 2])
def test_capture_absorbs_and_sums(jobs):
    baseline = run_cells(_cells(), jobs=1)
    sweep = SweepObserver()
    merged = run_cells(_cells(), jobs=jobs, sweep_obs=sweep)
    # telemetry rides the _perf quarantine; records identical outside it
    assert _strip_perf(merged) == _strip_perf(baseline)
    assert sweep.cell_count == 4
    per_cell = [r["_perf"]["obs"] for r in merged.values()]
    assert sweep.summary() == merge_summaries(per_cell)
    assert sweep.summary()["counters"]["cell_work"] == 1 + 2 + 3 + 4
    # every cell contributes its own track group (spans + marker)
    tracks = {s.track.split("/")[0] for s in sweep.registry.spans}
    assert tracks == {repr(("t", i)) for i in range(4)}


def test_default_sweep_is_picked_up_by_run_cells():
    sweep = SweepObserver()
    set_default_sweep(sweep)
    run_cells(_cells(2), jobs=2)
    assert sweep.cell_count == 2


def _stale_capture_probe(supervised):
    """Child-process body of the stale-capture test: observe one
    parallel sweep, uninstall the observer, then print what a later
    unobserved parallel sweep ships."""
    set_default_sweep(SweepObserver())
    run_cells(_cells(), jobs=2)
    set_default_sweep(None)
    shutdown_default_executor()
    serial = run_cells(_cells(), jobs=1)
    if supervised:
        set_default_supervisor(Supervisor(SupervisorConfig()))
    merged = run_cells(_cells(), jobs=2)
    print(json.dumps({
        "obs": ["obs" in r.get("_perf", {}) for r in merged.values()],
        "identical": _strip_perf(merged) == _strip_perf(serial),
    }))


@pytest.mark.parametrize("supervised", [False, True])
def test_capture_does_not_outlive_the_observer(supervised):
    # A fresh interpreter, so the worker processes (and the forkserver
    # they fork from) first start while the observer is installed —
    # as in a CLI run whose first sweep is observed.
    repo = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src"), str(repo)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, "-c",
         "from tests.perf.test_sweep_obs import _stale_capture_probe; "
         f"_stale_capture_probe({supervised})"],
        cwd=str(repo), env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    got = json.loads(child.stdout.strip().splitlines()[-1])
    assert got == {"obs": [False] * 4, "identical": True}


# ---------------------------------------------------------------------------
# supervisor event log
# ---------------------------------------------------------------------------

def test_supervisor_logs_retries_and_mirrors_journal(tmp_path):
    sup = Supervisor(SupervisorConfig(
        max_retries=3, journal=True,
        journal_dir=str(tmp_path / "journal")))
    cells = [Cell("ok", telemetric, {"x": 1}),
             Cell("fl", flaky, {"counter": str(tmp_path / "c"),
                                "fail_times": 2})]
    merged = sup.run(cells, jobs=2)
    assert merged["fl"]["ok"] is True
    counts = sup.events.counts()
    assert counts["sweep_begin"] == 1
    assert counts["cell_done"] == 2
    assert counts.get("retry", 0) == sup.stats["retries"] == 2
    retries = sup.events.named("retry")
    assert all(e["key"] == "fl" for e in retries)
    assert [e["attempt"] for e in retries] == [1, 2]
    # mirrored next to the sweep journal, readable by load_events
    assert sup.events.path is not None
    assert sup.events.path.name.endswith(".events.jsonl")
    loaded = load_events(sup.events.path)
    assert [e["event"] for e in loaded] == \
        [e["event"] for e in sup.events.entries]


def test_supervisor_logs_quarantine(tmp_path):
    def run():
        sup = Supervisor(SupervisorConfig(max_retries=1))
        cells = [Cell("bad", flaky, {"counter": str(tmp_path / "c"),
                                     "fail_times": 99})]
        sup.run(cells, jobs=1)
        return sup

    sup = run()
    assert sup.stats["quarantined"] == 1
    quars = sup.events.named("quarantine")
    assert len(quars) == 1
    assert quars[0]["key"] == "bad"
    assert "flaky attempt" in quars[0]["error"]


# ---------------------------------------------------------------------------
# CLI: merged trace under --jobs N (the satellite-1 regression)
# ---------------------------------------------------------------------------

def test_replicate_jobs_trace_out_exports_all_cells(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    trace = tmp_path / "sweep.trace.json"
    rc = main(["replicate", "--scale", "0.05", "--seeds", "1", "2",
               "--jobs", "2", "--obs", "--trace-out", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    # 2 seeds x {batch, lru, paper policy} = 6 cells, all merged
    assert "sweep telemetry: merged 6 cell snapshot(s)" in out
    doc = json.loads(trace.read_text())
    procs = {e["args"]["name"] for e in doc["traceEvents"]
             if e.get("ph") == "M" and e["name"] == "process_name"}
    # one distinct trace process (track group) per cell — before the
    # fix a --jobs sweep exported a main-process-only (empty) trace
    # (match by prefix: cell-key reprs may themselves contain "/")
    for key in ((s, m) for s in (1, 2)
                for m in ("batch", "lru", "so/ao/ai/bg")):
        want = repr(key)
        assert any(p == want or p.startswith(want + "/") for p in procs), \
            f"no trace process for cell {want}"
    assert len(procs) >= 6


# ---------------------------------------------------------------------------
# CLI: event-log rendering / cache stats
# ---------------------------------------------------------------------------

def test_cli_obs_renders_event_log(tmp_path, capsys):
    p = tmp_path / "sweep.events.jsonl"
    p.write_text(json.dumps({"seq": 0, "t": 0.0, "event": "retry",
                             "key": "'fl'", "attempt": 1,
                             "error": "boom"}) + "\n")
    assert main(["obs", str(p)]) == 0
    out = capsys.readouterr().out
    assert "Supervisor events" in out
    assert "retry" in out


def test_cli_obs_rejects_unknown_file(tmp_path, capsys):
    p = tmp_path / "junk.txt"
    p.write_text("not telemetry\n")
    assert main(["obs", str(p)]) == 1
    assert "no spans or events" in capsys.readouterr().err


def test_cli_cache_stats_hit_rate(tmp_path, capsys):
    from repro.perf import CellCache

    root = tmp_path / "cache"
    cache = CellCache(root=root)
    assert main(["cache", "stats", "--dir", str(root)]) == 0
    assert "hit rate: no recorded traffic" in capsys.readouterr().out
    cache.put("fp1", {"v": 1})
    cache.get("fp1")
    cache.get("fp1")
    cache.get("missing")
    assert main(["cache", "stats", "--dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert "hit rate: 67% lifetime (2 hits / 3 lookups, " \
           "1 stores, 0 corrupt)" in out


# ---------------------------------------------------------------------------
# cell markers and cell labels in what --obs prints and exports
# ---------------------------------------------------------------------------

def test_cell_markers_stay_out_of_the_phase_table():
    from repro.obs import Registry, phase_breakdown, render_phase_table

    sweep = SweepObserver()
    run_cells(_cells(2), jobs=1, sweep_obs=sweep)
    reg = Registry()
    reg.merge(sweep.registry)
    # each cell left one marker span next to its switch span
    assert sum(s.name == "cell" for s in reg.spans) == 2
    rows = phase_breakdown(reg)
    assert [r["phase"] for r in rows] == ["switch"]
    assert rows[0]["share"] == 1.0
    assert "cell" not in render_phase_table(rows)


def test_obs_sweep_prints_no_cell_row(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["replicate", "--scale", "0.05", "--seeds", "1", "--obs"])
    assert rc == 0
    out = capsys.readouterr().out
    table = out[out.index("Switch-phase breakdown"):]
    phases = [line.split()[0] for line in table.splitlines()[4:] if line]
    assert "switch" in phases and "cell" not in phases


def test_fig7_obs_trace_names_cells_by_short_unique_labels(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    trace = tmp_path / "f7.trace.json"
    rc = main(["run", "fig7", "--scale", "0.02", "--obs",
               "--trace-out", str(trace)])
    assert rc == 0
    doc = json.loads(trace.read_text())
    procs = [e["args"]["name"] for e in doc["traceEvents"]
             if e.get("ph") == "M" and e["name"] == "process_name"]
    assert len(procs) == 15  # 5 benchmarks x batch, lru, so/ao/ai/bg
    assert len(set(procs)) == len(procs)
    assert max(len(p) for p in procs) <= 80
    assert not any("GangConfig(" in p for p in procs)


def test_cell_label_is_unique_per_config():
    from dataclasses import replace

    from repro.disk import DiskParams
    from repro.experiments import GangConfig
    from repro.faults import FaultRates
    from repro.obs.sweep import cell_label

    base = GangConfig("CG", "B", policy="so/ao/ai/bg", seed=3, scale=0.2)
    assert cell_label(base) == "CG.Bx2@1 gang:so/ao/ai/bg seed=3 scale=0.2"
    variants = [
        base,
        replace(base, seed=4),
        replace(base, scale=0.25),
        replace(base, quantum_s=60.0),
        replace(base, memory_mb=200.0),
        replace(base, max_events=1000),
        replace(base, disk=DiskParams(seek_distance_coef_s=1e-5)),
        replace(base, faults=FaultRates(disk_error_rate=0.1)),
        replace(base, faults=FaultRates(record_loss_rate=0.1)),
    ]
    labels = [cell_label(c) for c in variants]
    assert len(set(labels)) == len(labels)
    assert "faults.disk_error_rate=0.1" in labels[7]
    # keys that are not configs keep their old names
    assert cell_label("bad") == "bad"
    assert cell_label((1, "lru")) == "(1, 'lru')"
