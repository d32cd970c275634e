"""Telemetry exporters: Chrome trace, JSONL, summary dicts, reports.

Three consumption paths for one :class:`~repro.obs.registry.Registry`:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format understood by ``chrome://tracing`` and Perfetto.  Span tracks
  map to trace threads, run scopes map to trace processes, so a
  multi-cell experiment (e.g. the four Figure-6 policies) renders as
  four process groups with per-node switch-phase lanes.
* :func:`write_jsonl` — one JSON object per line (counters first, then
  spans), for ad-hoc ``jq``/pandas analysis.
* :func:`summary` — a flat, JSON-ready dict of every counter, gauge,
  histogram and per-phase span aggregate.  Deterministic for a given
  simulation (everything is keyed on simulated time), which is what
  lets :func:`repro.experiments.runner.run_cell` ship it through the
  perf pool's reserved ``"_perf"`` quarantine without breaking the
  serial-vs-parallel byte-identity guarantee.

:func:`phase_breakdown` + :func:`render_phase_table` turn the recorded
switch-phase spans into the where-does-switch-time-go table — the
paper's Fig. 1 decomposition, measured.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.obs.registry import Registry, Span

#: the switch span and the phases that split it
SWITCH_PHASES = ("switch", "drain", "page_out", "page_in_prefetch")
#: Canonical ordering of the switch-phase spans in reports.
PHASE_ORDER = SWITCH_PHASES + ("demand_fill",)

#: name of the sweep observer's per-cell marker span (one ``[0,
#: makespan)`` span per cell, so each cell gets a trace track): a
#: marker, not a phase, so :func:`phase_breakdown` leaves it out
CELL_MARKER = "cell"


def _labels_dict(labels: tuple[tuple[str, str], ...]) -> dict[str, str]:
    return {k: str(v) for k, v in labels}


def _flat_name(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


# ---------------------------------------------------------------------------
# summary / JSONL
# ---------------------------------------------------------------------------

def summary(reg: Registry) -> dict:
    """Flatten a registry into a deterministic, JSON-ready dict."""
    spans: dict[str, dict] = {}
    for s in reg.spans:
        agg = spans.setdefault(s.name, {"count": 0, "total_s": 0.0,
                                        "max_s": 0.0})
        agg["count"] += 1
        agg["total_s"] += s.duration
        if s.duration > agg["max_s"]:
            agg["max_s"] = s.duration
    return {
        "counters": {
            _flat_name(c.name, c.labels): c.value for c in reg.counters()
        },
        "gauges": {
            _flat_name(g.name, g.labels): g.value for g in reg.gauges()
        },
        "histograms": {
            _flat_name(h.name, h.labels): h.snapshot()
            for h in reg.histograms()
        },
        "spans": spans,
    }


def write_jsonl(reg: Registry, path: Union[str, Path]) -> Path:
    """Write counters then spans, one JSON object per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for c in reg.counters():
            fh.write(json.dumps({
                "type": "counter", "name": c.name,
                "labels": _labels_dict(c.labels), "value": c.value,
            }, sort_keys=True) + "\n")
        for g in reg.gauges():
            fh.write(json.dumps({
                "type": "gauge", "name": g.name,
                "labels": _labels_dict(g.labels), "value": g.value,
            }, sort_keys=True) + "\n")
        for h in reg.histograms():
            fh.write(json.dumps({
                "type": "histogram", "name": h.name,
                "labels": _labels_dict(h.labels), **h.snapshot(),
            }, sort_keys=True) + "\n")
        for s in reg.spans:
            fh.write(json.dumps({
                "type": "span", "name": s.name, "track": s.track,
                "start": s.start, "end": s.end, "args": s.args or {},
            }, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# Chrome trace-event format
# ---------------------------------------------------------------------------

def chrome_trace(reg: Registry) -> dict:
    """Registry → Trace Event Format dict (object form).

    Spans become complete (``"ph": "X"``) events with microsecond
    timestamps; each run scope is a trace *process*, each track within
    it a trace *thread*, both named via metadata events.
    """
    # track "<run>/<node>" → process <run>, thread <node>.  Run labels
    # may themselves contain "/" (policy specs like "so/ao/ai/bg"), so
    # split at the LAST separator: component track names never do.
    procs: dict[str, int] = {}
    threads: dict[tuple[str, str], int] = {}
    split: list[tuple[Span, str, str]] = []
    for s in reg.spans:
        proc, _, thread = s.track.rpartition("/")
        if not proc:
            proc, thread = "sim", s.track
        split.append((s, proc, thread))
    for _, proc, thread in split:
        if proc not in procs:
            procs[proc] = len(procs)
        key = (proc, thread)
        if key not in threads:
            threads[key] = sum(1 for p, _ in threads if p == proc)

    events: list[dict] = []
    for proc, pid in procs.items():
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": proc},
        })
    for (proc, thread), tid in threads.items():
        events.append({
            "ph": "M", "name": "thread_name", "pid": procs[proc],
            "tid": tid, "args": {"name": thread},
        })

    spans_ev = []
    for s, proc, thread in split:
        spans_ev.append({
            "name": s.name,
            "cat": "obs",
            "ph": "X",
            "ts": s.start * 1e6,            # Trace Event ts is in µs
            "dur": (s.end - s.start) * 1e6,
            "pid": procs[proc],
            "tid": threads[(proc, thread)],
            "args": s.args or {},
        })
    # Stable nesting: at equal start time the longer (enclosing) span
    # must come first for viewers that honour emission order.
    spans_ev.sort(key=lambda e: (e["ts"], -e["dur"], e["pid"], e["tid"]))
    events.extend(spans_ev)

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs",
            "clock": "simulated seconds x 1e6",
            "counters": {
                _flat_name(c.name, c.labels): c.value
                for c in reg.counters()
            },
        },
    }


def write_chrome_trace(reg: Registry, path: Union[str, Path]) -> Path:
    """Write :func:`chrome_trace` output as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(chrome_trace(reg), fh, indent=1)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# phase-breakdown report
# ---------------------------------------------------------------------------

def _iter_spans(source: Union[Registry, Iterable[Span]]) -> list[Span]:
    if isinstance(source, Registry):
        return list(source.spans)
    return list(source)


def phase_breakdown(source: Union[Registry, Iterable[Span]],
                    run: Optional[str] = None) -> list[dict]:
    """Aggregate spans by phase name: count, total, mean, share.

    ``share`` is each phase's total relative to the ``switch`` total
    when switch spans exist, else relative to the grand total.  Every
    node of a run drains, pages out and prefetches inside each of its
    run's switches, so those three phases are taken against the switch
    total times the node tracks they cover in that run: they then
    decompose the switch on any node count.  A phase outside the
    switch, such as ``demand_fill``, has no share of it: its ``share``
    is ``None`` when switch spans exist.  Returns rows in
    :data:`PHASE_ORDER` then alphabetically.  The sweep observer's
    :data:`CELL_MARKER` spans are not phases and get no row.
    """
    spans = [s for s in _iter_spans(source) if s.name != CELL_MARKER]
    if run is not None:
        prefix = f"{run}/"
        spans = [s for s in spans
                 if s.track.startswith(prefix) or s.track == run]
    agg: dict[str, dict] = {}
    # per run (a track's prefix): its switch total and its node tracks
    run_switch_s: dict[str, float] = {}
    run_nodes: dict[str, set] = {}
    for s in spans:
        row = agg.setdefault(s.name, {"phase": s.name, "count": 0,
                                      "total_s": 0.0, "max_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.duration
        if s.duration > row["max_s"]:
            row["max_s"] = s.duration
        run_id, _, leaf = s.track.rpartition("/")
        if s.name == "switch":
            run_switch_s[run_id] = run_switch_s.get(run_id, 0.0) + s.duration
        elif s.name in SWITCH_PHASES:
            run_nodes.setdefault(run_id, set()).add(leaf)
    switch_s = agg.get("switch", {}).get("total_s", 0.0)
    if switch_s > 0.0:
        node_s = sum(total * len(run_nodes.get(run_id, ()))
                     for run_id, total in run_switch_s.items())
        denoms = dict.fromkeys(SWITCH_PHASES, node_s)
        denoms["switch"] = switch_s
    else:
        denoms = dict.fromkeys(agg, sum(r["total_s"] for r in agg.values()))
    for row in agg.values():
        row["mean_s"] = row["total_s"] / row["count"] if row["count"] else 0.0
        denom = denoms.get(row["phase"])
        if denom is None:
            row["share"] = None
        else:
            row["share"] = row["total_s"] / denom if denom > 0 else 0.0
    order = {name: i for i, name in enumerate(PHASE_ORDER)}
    return sorted(
        agg.values(),
        key=lambda r: (order.get(r["phase"], len(order)), r["phase"]),
    )


def render_phase_table(rows: list[dict],
                       title: str = "Switch-phase breakdown") -> str:
    """ASCII table for :func:`phase_breakdown` rows."""
    if not rows:
        return f"{title}\n<no spans recorded>"
    body = [
        (r["phase"], r["count"], f"{r['total_s']:.2f}",
         f"{r['mean_s']:.3f}", f"{r['max_s']:.3f}",
         "" if r["share"] is None else f"{100.0 * r['share']:.1f}%")
        for r in rows
    ]
    # Imported lazily: repro.metrics pulls in the scheduler stack, which
    # itself imports repro.obs — a module-level import would be circular.
    from repro.metrics.report import format_table

    return format_table(
        ("phase", "spans", "total s", "mean s", "max s", "share"),
        body, title=title,
    )


def render_counter_table(reg: Registry, prefixes: tuple[str, ...] = (),
                         title: str = "Counters") -> str:
    """ASCII table of counter values, optionally prefix-filtered.

    ``prefixes`` selects counters whose *name* starts with any entry
    (empty = all).  Used by ``repro obs`` to surface host-side
    counters (``cellcache_*``, ``supervisor_*``) that live outside the
    simulated-time phase table.
    """
    rows = [
        (_flat_name(c.name, c.labels), c.value)
        for c in reg.counters()
        if not prefixes or any(c.name.startswith(p) for p in prefixes)
    ]
    if not rows:
        return f"{title}\n<no matching counters>"
    # Imported lazily: repro.metrics pulls in the scheduler stack, which
    # itself imports repro.obs — a module-level import would be circular.
    from repro.metrics.report import format_table

    return format_table(("counter", "value"), rows, title=title)


def load_spans(path: Union[str, Path]) -> list[Span]:
    """Read spans back from a Chrome trace or JSONL file."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    # JSONL lines also start with "{", so sniffing the first character
    # is not enough: a Chrome trace parses as ONE document, a JSONL
    # file does not (line two fails with "Extra data").
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict):
        spans = []
        for ev in doc.get("traceEvents", []):
            if ev.get("ph") != "X":
                continue
            start = ev["ts"] / 1e6
            spans.append(Span(
                name=ev["name"],
                track=f"{ev.get('pid', 0)}/{ev.get('tid', 0)}",
                start=start,
                end=start + ev.get("dur", 0.0) / 1e6,
                args=ev.get("args") or None,
            ))
        return spans
    spans = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        if obj.get("type") != "span":
            continue
        spans.append(Span(
            name=obj["name"], track=obj["track"],
            start=obj["start"], end=obj["end"],
            args=obj.get("args") or None,
        ))
    return spans


__all__ = [
    "CELL_MARKER",
    "PHASE_ORDER",
    "chrome_trace",
    "load_spans",
    "phase_breakdown",
    "render_counter_table",
    "render_phase_table",
    "summary",
    "write_chrome_trace",
    "write_jsonl",
]
