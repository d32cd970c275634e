"""Tests for the telemetry exporters."""

import json

from repro.obs import (
    PHASE_ORDER,
    Registry,
    chrome_trace,
    load_spans,
    phase_breakdown,
    render_counter_table,
    render_phase_table,
    summary,
    write_chrome_trace,
    write_jsonl,
)


def _populated() -> Registry:
    reg = Registry()
    rid = reg.begin_run("cell")
    reg.counter("disk_pages", node="n0", op="read").inc(10)
    reg.counter("disk_pages", node="n0", op="write").inc(4)
    reg.gauge("free", node="n0").set(7)
    reg.histogram("svc", node="n0").observe(0.5)
    reg.span("switch", "scheduler", 0.0, 3.0, in_job="a")
    reg.span("drain", "n0", 0.0, 0.0)
    reg.span("page_out", "n0", 0.0, 1.0)
    reg.span("page_in_prefetch", "n0", 1.0, 3.0)
    reg.span("demand_fill", "n0.vmm", 3.0, 4.0, pid=1)
    reg.end_run()
    return reg


def test_summary_shape_and_determinism():
    reg = _populated()
    s = summary(reg)
    assert set(s) == {"counters", "gauges", "histograms", "spans"}
    run = f"0:cell"
    key = f"disk_pages{{node=n0,op=read,run={run}}}"
    assert s["counters"][key] == 10
    assert s["spans"]["switch"]["count"] == 1
    assert s["spans"]["switch"]["total_s"] == 3.0
    # JSON-serializable and stable
    assert json.dumps(s, sort_keys=True) == json.dumps(summary(_populated()),
                                                       sort_keys=True)


def test_chrome_trace_well_formed():
    reg = _populated()
    doc = chrome_trace(reg)
    assert isinstance(doc["traceEvents"], list)
    evs = doc["traceEvents"]
    meta = [e for e in evs if e["ph"] == "M"]
    spans = [e for e in evs if e["ph"] == "X"]
    assert len(spans) == 5
    for e in spans:
        assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(e)
        assert e["ts"] >= 0 and e["dur"] >= 0
    names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
    assert "0:cell" in names
    threads = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
    assert {"scheduler", "n0", "n0.vmm"} <= threads
    # switch span is in µs
    sw = next(e for e in spans if e["name"] == "switch")
    assert sw["dur"] == 3.0e6
    # enclosing spans precede enclosed at equal start
    ts0 = [e for e in spans if e["ts"] == 0.0]
    assert ts0[0]["name"] == "switch"


def test_chrome_trace_roundtrip(tmp_path):
    reg = _populated()
    p = write_chrome_trace(reg, tmp_path / "t.json")
    doc = json.loads(p.read_text())
    assert doc["displayTimeUnit"] == "ms"
    spans = load_spans(p)
    assert len(spans) == 5
    assert {s.name for s in spans} == {
        "switch", "drain", "page_out", "page_in_prefetch", "demand_fill"
    }
    sw = next(s for s in spans if s.name == "switch")
    assert sw.duration == 3.0


def test_jsonl_roundtrip(tmp_path):
    reg = _populated()
    p = write_jsonl(reg, tmp_path / "t.jsonl")
    lines = [json.loads(l) for l in p.read_text().splitlines() if l.strip()]
    types = {l["type"] for l in lines}
    assert types == {"counter", "gauge", "histogram", "span"}
    spans = load_spans(p)
    assert len(spans) == 5


def test_phase_breakdown_orders_and_shares():
    reg = _populated()
    rows = phase_breakdown(reg)
    phases = [r["phase"] for r in rows]
    assert phases == list(PHASE_ORDER)
    by = {r["phase"]: r for r in rows}
    # share is relative to the switch total when switch spans exist
    assert by["switch"]["share"] == 1.0
    assert abs(by["page_out"]["share"] - 1.0 / 3.0) < 1e-12
    assert by["drain"]["total_s"] == 0.0
    assert by["page_in_prefetch"]["mean_s"] == 2.0


def test_phase_breakdown_run_filter():
    reg = Registry()
    r1 = reg.begin_run("a")
    reg.span("switch", "scheduler", 0.0, 1.0)
    reg.end_run()
    r2 = reg.begin_run("b")
    reg.span("switch", "scheduler", 0.0, 5.0)
    reg.end_run()
    all_rows = phase_breakdown(reg)
    assert all_rows[0]["count"] == 2
    only = phase_breakdown(reg, run=r2)
    assert only[0]["count"] == 1
    assert only[0]["total_s"] == 5.0


def test_phase_breakdown_no_switch_uses_grand_total():
    reg = Registry()
    reg.span("demand_fill", "n0", 0.0, 1.0)
    reg.span("demand_fill", "n0", 1.0, 4.0)
    rows = phase_breakdown(reg)
    assert rows[0]["share"] == 1.0


def test_render_phase_table():
    reg = _populated()
    out = render_phase_table(phase_breakdown(reg))
    for phase in PHASE_ORDER:
        assert phase in out
    assert "100.0%" in out
    assert render_phase_table([]).endswith("<no spans recorded>")


def test_empty_registry_exports():
    reg = Registry()
    s = summary(reg)
    assert s == {"counters": {}, "gauges": {}, "histograms": {}, "spans": {}}
    doc = chrome_trace(reg)
    assert doc["traceEvents"] == []
    assert phase_breakdown(reg) == []


def test_phase_breakdown_zero_span_run():
    # a run that opened and closed without recording any spans must not
    # perturb the breakdown of runs that did
    reg = Registry()
    reg.begin_run("empty")
    reg.end_run()
    reg.begin_run("real")
    reg.span("switch", "scheduler", 0.0, 2.0)
    reg.end_run()
    rows = phase_breakdown(reg)
    assert [r["phase"] for r in rows] == ["switch"]
    assert rows[0]["count"] == 1 and rows[0]["share"] == 1.0
    out = render_phase_table(rows)
    assert "switch" in out and "100.0%" in out


def test_phase_breakdown_single_phase_run():
    # only one (non-switch) phase recorded: share falls back to the
    # grand total and the table still renders a complete 100% row
    reg = Registry()
    reg.begin_run("cell")
    reg.span("demand_fill", "n0.vmm", 0.0, 1.5)
    reg.span("demand_fill", "n0.vmm", 2.0, 2.5)
    reg.end_run()
    rows = phase_breakdown(reg)
    assert len(rows) == 1
    assert rows[0]["phase"] == "demand_fill"
    assert rows[0]["count"] == 2
    assert rows[0]["total_s"] == 2.0
    assert rows[0]["share"] == 1.0
    assert "demand_fill" in render_phase_table(rows)


def test_policy_labels_with_slashes_keep_their_track():
    # the paper policy label "so/ao/ai/bg" contains "/"; the trace
    # exporter splits process/thread at the LAST separator so the
    # policy stays intact on the process side
    reg = Registry()
    reg.begin_run("0:LU gang:so/ao/ai/bg")
    reg.span("switch", "scheduler", 0.0, 1.0)
    reg.span("page_out", "n0", 0.0, 0.5)
    reg.end_run()
    doc = chrome_trace(reg)
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    procs = {e["args"]["name"] for e in meta
             if e["name"] == "process_name"}
    threads = {e["args"]["name"] for e in meta
               if e["name"] == "thread_name"}
    assert procs == {"0:0:LU gang:so/ao/ai/bg"}
    assert threads == {"scheduler", "n0"}
    rows = phase_breakdown(reg, run="0:0:LU gang:so/ao/ai/bg")
    assert [r["phase"] for r in rows] == ["switch", "page_out"]


def test_render_counter_table_prefix_filter():
    reg = Registry()
    reg.counter("cellcache_hits").inc(3)
    reg.counter("supervisor_retries").inc(1)
    reg.counter("disk_pages", op="read").inc(7)
    out = render_counter_table(reg, prefixes=("cellcache_", "supervisor_"),
                               title="Host-side counters")
    assert "Host-side counters" in out
    assert "cellcache_hits" in out
    assert "supervisor_retries" in out
    assert "disk_pages" not in out
    # no filter -> everything
    assert "disk_pages" in render_counter_table(reg)
    # nothing matches -> sentinel text
    empty = render_counter_table(reg, prefixes=("nope_",))
    assert empty.endswith("<no matching counters>")


def test_phase_outside_the_switch_gets_no_share():
    # demand fills run after the switch, not inside it: as a share of
    # the switch total this one would read 2268.0%
    reg = Registry()
    reg.begin_run("cell")
    reg.span("switch", "scheduler", 0.0, 3.0)
    reg.span("page_out", "n0", 0.0, 1.0)
    reg.span("demand_fill", "n0.vmm", 3.0, 71.04)
    reg.end_run()
    rows = phase_breakdown(reg)
    by = {r["phase"]: r for r in rows}
    assert by["switch"]["share"] == 1.0
    assert abs(by["page_out"]["share"] - 1.0 / 3.0) < 1e-12
    assert by["demand_fill"]["share"] is None
    assert by["demand_fill"]["total_s"] == 71.04 - 3.0
    out = render_phase_table(rows)
    fill = next(l for l in out.splitlines() if "demand_fill" in l)
    assert "%" not in fill
    assert "100.0%" in out and "33.3%" in out


def test_node_phases_decompose_the_switch_on_every_node_count():
    # each node pages out and prefetches inside every switch of its
    # run, so two nodes' spans add up to twice the switch; the shares
    # are taken per node and still sum to the switch
    reg = Registry()
    reg.begin_run("two-node")
    reg.span("switch", "scheduler", 0.0, 4.0)
    for node in ("n0", "n1"):
        reg.span("drain", node, 0.0, 0.0)
        reg.span("page_out", node, 0.0, 1.0)
        reg.span("page_in_prefetch", node, 1.0, 4.0)
    reg.end_run()
    by = {r["phase"]: r for r in phase_breakdown(reg)}
    assert by["switch"]["share"] == 1.0
    assert by["page_out"]["total_s"] == 2.0
    assert by["page_out"]["count"] == 2
    assert by["page_out"]["share"] == 0.25
    assert by["page_in_prefetch"]["share"] == 0.75
    assert by["drain"]["share"] == 0.0
    # a second run on one node: each run's switch is weighted by its
    # own node count (2 x 4 s + 1 x 2 s of node time in switches)
    reg.begin_run("one-node")
    reg.span("switch", "scheduler", 0.0, 2.0)
    reg.span("page_out", "n0", 0.0, 2.0)
    reg.end_run()
    by = {r["phase"]: r for r in phase_breakdown(reg)}
    assert by["switch"]["total_s"] == 6.0
    assert by["page_out"]["share"] == 4.0 / 10.0
    assert by["page_in_prefetch"]["share"] == 6.0 / 10.0
