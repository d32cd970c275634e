"""Tests for sweep-scale observability (repro.obs.sweep)."""

import io
import json

import pytest

from repro.obs import Registry, summary
from repro.obs.registry import Span
from repro.obs.sweep import (
    ProgressTicker,
    SweepEventLog,
    SweepObserver,
    get_default_sweep,
    load_events,
    merge_summaries,
    render_event_table,
    set_default_sweep,
    summary_of_snapshot,
)


def _cell_registry(seed: int) -> Registry:
    reg = Registry()
    rid = reg.begin_run("cell")
    reg.counter("disk_pages", op="read").inc(10 * seed)
    reg.gauge("free", node="n0").set(seed)
    reg.histogram("svc").observe(0.5 * seed)
    reg.histogram("svc").observe(1.5 * seed)
    reg.span("switch", "scheduler", 0.0, 3.0)
    reg.span("page_out", "n0", 0.0, 1.0)
    reg.end_run()
    return reg


# ---------------------------------------------------------------------------
# snapshot / merge
# ---------------------------------------------------------------------------

def test_snapshot_roundtrip_preserves_summary():
    reg = _cell_registry(1)
    snap = reg.snapshot()
    # JSON-able wire format
    snap2 = json.loads(json.dumps(snap))
    other = Registry()
    other.merge(snap2)
    assert summary(other) == summary(reg)


def test_merge_is_additive_by_exact_key():
    a = _cell_registry(1)
    b = _cell_registry(2)
    merged = Registry()
    merged.merge(a)
    merged.merge(b)
    s = summary(merged)
    key = "disk_pages{op=read,run=0:cell}"
    assert s["counters"][key] == 30
    # gauges add under aggregation
    assert s["gauges"]["free{node=n0,run=0:cell}"] == 3
    h = s["histograms"]["svc{run=0:cell}"]
    assert h["count"] == 4
    assert h["min"] == 0.5 and h["max"] == 3.0
    assert s["spans"]["switch"]["count"] == 2


def test_merge_track_prefix_namespaces_spans():
    merged = Registry()
    merged.merge(_cell_registry(1), track_prefix="(1, 'lru')")
    merged.merge(_cell_registry(2), track_prefix="(2, 'lru')")
    tracks = {s.track for s in merged.spans}
    assert "(1, 'lru')/0:cell/scheduler" in tracks
    assert "(2, 'lru')/0:cell/n0" in tracks


def test_merge_rejects_unknown_snapshot_version():
    snap = _cell_registry(1).snapshot()
    snap["v"] = 99
    with pytest.raises(ValueError, match="version"):
        Registry().merge(snap)


def test_summary_of_snapshot_matches_source():
    reg = _cell_registry(3)
    assert summary_of_snapshot(reg.snapshot()) == summary(reg)


# ---------------------------------------------------------------------------
# merge_summaries
# ---------------------------------------------------------------------------

def test_merge_summaries_is_elementwise_sum():
    summaries = [summary(_cell_registry(s)) for s in (1, 2, 3)]
    out = merge_summaries(summaries)
    key = "disk_pages{op=read,run=0:cell}"
    assert out["counters"][key] == sum(s["counters"][key] for s in summaries)
    h = out["histograms"]["svc{run=0:cell}"]
    assert h["count"] == 6
    assert h["sum"] == pytest.approx(sum(
        s["histograms"]["svc{run=0:cell}"]["sum"] for s in summaries))
    assert h["min"] == 0.5 and h["max"] == 4.5
    sw = out["spans"]["switch"]
    assert sw["count"] == 3 and sw["total_s"] == 9.0 and sw["max_s"] == 3.0


def test_merge_summaries_handles_empty_histograms():
    empty = {"histograms": {"svc{}": {"count": 0, "sum": 0.0,
                                      "min": None, "max": None}}}
    full = {"histograms": {"svc{}": {"count": 2, "sum": 3.0,
                                     "min": 1.0, "max": 2.0}}}
    out = merge_summaries([empty, full, empty])
    assert out["histograms"]["svc{}"] == {
        "count": 2, "sum": 3.0, "min": 1.0, "max": 2.0}
    # all-empty stays None
    out2 = merge_summaries([empty, empty])
    assert out2["histograms"]["svc{}"]["min"] is None


def test_merge_summaries_of_nothing_is_empty():
    assert merge_summaries([]) == {
        "counters": {}, "gauges": {}, "histograms": {}, "spans": {}}


# ---------------------------------------------------------------------------
# SweepObserver
# ---------------------------------------------------------------------------

def _cell_result(seed: int, makespan: float = 7.0) -> dict:
    reg = _cell_registry(seed)
    return {"makespan": makespan,
            "_perf": {"obs": summary(reg), "obs_snapshot": reg.snapshot()}}


def test_observer_summary_equals_cell_sum():
    sweep = SweepObserver()
    results = {(s, "lru"): _cell_result(s) for s in (1, 2, 3)}
    assert sweep.absorb_results(results) == 3
    assert sweep.cell_count == 3
    assert sweep.cells_skipped == 0
    expected = merge_summaries(
        r["_perf"]["obs"] for r in results.values())
    assert sweep.summary() == expected
    # counters in the merged registry agree exactly with the summed view
    assert summary(sweep.registry)["counters"] == expected["counters"]


def test_observer_marker_span_per_cell():
    sweep = SweepObserver()
    sweep.absorb((1, "lru"), _cell_result(1, makespan=42.0))
    markers = [s for s in sweep.registry.spans if s.name == "cell"]
    assert len(markers) == 1
    assert markers[0].end == 42.0
    # marker rides the cell's own trace process
    assert markers[0].track == "(1, 'lru')/0:cell/sweep"


def test_observer_marker_span_for_spanless_cell():
    reg = Registry()
    reg.counter("events_total").inc(5)
    sweep = SweepObserver()
    sweep.absorb((1, "batch"), {
        "makespan": 9.0, "_perf": {"obs_snapshot": reg.snapshot()}})
    markers = [s for s in sweep.registry.spans if s.name == "cell"]
    assert markers[0].track == "(1, 'batch')/sweep"
    # no "obs" summary shipped -> reconstructed from the snapshot
    assert sweep.summary()["counters"] == {"events_total": 5}


def test_observer_skips_payload_free_results():
    sweep = SweepObserver()
    assert not sweep.absorb((1, "lru"), {"makespan": 1.0})
    assert not sweep.absorb((2, "lru"), None)
    assert sweep.cells_skipped == 2
    assert sweep.cell_count == 0


def test_observer_disambiguates_repeat_keys():
    sweep = SweepObserver()
    sweep.absorb("cell", _cell_result(1))
    sweep.absorb("cell", _cell_result(2))
    assert set(sweep.cell_summaries()) == {"cell", "cell#2"}


def test_default_sweep_toggles_capture_flag(monkeypatch):
    from repro.perf import pool

    seen = []
    real = pool._execute

    def spy(cell, capture):
        seen.append(capture)
        return real(cell, capture)

    monkeypatch.setattr(pool, "_execute", spy)
    cells = [pool.Cell("c", dict, {})]
    prev = get_default_sweep()
    try:
        sweep = SweepObserver()
        set_default_sweep(sweep)
        assert get_default_sweep() is sweep
        pool.run_cells(cells)
        set_default_sweep(None)
        pool.run_cells(cells)
    finally:
        set_default_sweep(prev)
    assert seen == [True, False]


# ---------------------------------------------------------------------------
# SweepEventLog
# ---------------------------------------------------------------------------

def test_event_log_records_and_mirrors(tmp_path):
    log = SweepEventLog()
    path = tmp_path / "deep" / "sweep.events.jsonl"
    log.attach(path)
    log.log("sweep_begin", cells=3, jobs=2)
    log.log("retry", key=(1, "lru"), attempt=1, error="boom",
            backoff_s=0.125)
    log.log("cell_done", key=(1, "lru"), attempt=2, wall_s=0.5)
    log.close_file()
    assert [e["seq"] for e in log.entries] == [0, 1, 2]
    assert log.counts() == {"cell_done": 1, "retry": 1, "sweep_begin": 1}
    assert log.named("retry")[0]["key"] == "(1, 'lru')"
    assert log.named("retry")[0]["attempt"] == 1
    loaded = load_events(path)
    assert [e["event"] for e in loaded] == [
        "sweep_begin", "retry", "cell_done"]
    assert loaded[1]["error"] == "boom"


def test_load_events_sniffs_non_event_files(tmp_path):
    p = tmp_path / "other.jsonl"
    p.write_text('{"type": "span", "name": "x"}\n')
    assert load_events(p) == []
    p.write_text("not json at all\n")
    assert load_events(p) == []
    assert load_events(tmp_path / "missing.jsonl") == []


def test_render_event_table():
    log = SweepEventLog()
    log.log("retry", key=(1, "lru"), attempt=1, error="boom",
            backoff_s=0.125)
    out = render_event_table(log.entries)
    assert "retry" in out
    assert "(1, 'lru')" in out
    assert "backoff_s=0.125" in out
    assert render_event_table([]).endswith("<no events recorded>")


# ---------------------------------------------------------------------------
# ProgressTicker
# ---------------------------------------------------------------------------

def _fake_clock(start=0.0):
    state = {"t": start}

    def clock():
        state["t"] += 1.0
        return state["t"]

    return clock


def test_ticker_renders_and_overwrites():
    buf = io.StringIO()
    tick = ProgressTicker(total=10, done=2, stream=buf, enabled=True,
                          min_interval_s=0.0, clock=_fake_clock())
    tick.add_events(5000)
    tick.update(done=3, running=4, quarantined=1, eta_s=75.0, force=True)
    tick.close()
    out = buf.getvalue()
    assert "\r" in out
    assert "sweep 3/10 done" in out
    assert "4 running" in out
    assert "1 quarantined" in out
    assert "ev/s" in out
    assert "ETA 1m15s" in out
    assert out.endswith("\n")


def test_ticker_disabled_for_non_tty():
    buf = io.StringIO()  # StringIO has no isatty -> True
    tick = ProgressTicker(total=5, stream=buf)
    assert tick.enabled is False
    tick.update(done=1, running=1, force=True)
    tick.close()
    assert buf.getvalue() == ""


def test_ticker_throttles_redraws():
    buf = io.StringIO()
    clock = iter(range(100)).__next__
    tick = ProgressTicker(total=5, stream=buf, enabled=True,
                          min_interval_s=10.0,
                          clock=lambda: float(clock()))
    tick.update(done=1, force=True)
    first = buf.getvalue()
    tick.update(done=2)  # within min_interval -> suppressed
    assert buf.getvalue() == first
    assert tick.done == 2  # state still tracked
