"""Sweep-scale observability: cross-process telemetry aggregation.

PR 3's :class:`~repro.obs.registry.Registry` instruments one process;
since the sweep layer (:mod:`repro.perf.pool` /
:mod:`repro.perf.supervisor`) fans cells across worker processes, a
worker's counters and spans never reached the parent.  This module
closes the gap with four pieces:

* **Capture + absorb.**  When a sweep runs with a
  :class:`SweepObserver` (passed to :func:`repro.perf.pool.run_cells`
  or installed with :func:`set_default_sweep`), the sweep carries an
  explicit capture flag and :func:`repro.perf.pool._execute` runs
  every cell against a fresh default registry and attaches its
  :meth:`~repro.obs.registry.Registry.snapshot` (plus the flat
  :func:`~repro.obs.export.summary`) under the result's ``"_perf"``
  quarantine — the established nondeterminism channel, so obs-on and
  obs-off sweeps stay byte-identical outside it and cell cache
  fingerprints never change.  :class:`SweepObserver` folds the shipped
  snapshots into one sweep-level registry, one track group per cell,
  which is what makes ``--trace-out`` meaningful under ``--jobs N``.

* **Sweep summaries.**  :meth:`SweepObserver.summary` is the
  elementwise sum of the per-cell summaries (:func:`merge_summaries`),
  so it *equals* that sum by construction — including span totals,
  which would not survive re-aggregation from raw spans under floating
  point.  Counters, gauges and histograms in the merged registry agree
  with the summed view exactly (additive merges in the same order).

* **Supervisor event log.**  :class:`SweepEventLog` records every
  retry, grace extension, hung-kill, worker respawn and quarantine as a
  structured entry correlated by cell key + attempt; with journaling
  on it is mirrored to ``<sweep_id>.events.jsonl`` next to the sweep
  journal.  :func:`load_events` / :func:`render_event_table` read a
  log back for ``repro obs``.

* **Progress.**  :class:`ProgressTicker` renders a single-line live
  done/running/quarantined + ETA + events/sec display to stderr
  (auto-disabled when not a TTY), driven by the supervisor's EMA cost
  estimates.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Hashable,
    IO,
    Iterable,
    Mapping,
    Optional,
    Union,
)

from repro.obs.export import CELL_MARKER, summary as registry_summary
from repro.obs.registry import Registry, Span

# ---------------------------------------------------------------------------
# summary folding
# ---------------------------------------------------------------------------

def merge_summaries(summaries: Iterable[dict]) -> dict:
    """Elementwise sum of :func:`~repro.obs.export.summary` dicts.

    Counters, gauges, span counts/totals and histogram counts/sums
    add; histogram min/max combine; span ``max_s`` takes the maximum.
    Keys are sorted so the result is deterministic regardless of
    absorb order.
    """
    out: dict[str, dict] = {"counters": {}, "gauges": {},
                            "histograms": {}, "spans": {}}
    for s in summaries:
        for k, v in s.get("counters", {}).items():
            out["counters"][k] = out["counters"].get(k, 0.0) + v
        for k, v in s.get("gauges", {}).items():
            out["gauges"][k] = out["gauges"].get(k, 0.0) + v
        for k, h in s.get("histograms", {}).items():
            agg = out["histograms"].setdefault(
                k, {"count": 0, "sum": 0.0, "min": None, "max": None})
            agg["count"] += h["count"]
            agg["sum"] += h["sum"]
            if h.get("min") is not None and (
                    agg["min"] is None or h["min"] < agg["min"]):
                agg["min"] = h["min"]
            if h.get("max") is not None and (
                    agg["max"] is None or h["max"] > agg["max"]):
                agg["max"] = h["max"]
        for k, sp in s.get("spans", {}).items():
            agg = out["spans"].setdefault(
                k, {"count": 0, "total_s": 0.0, "max_s": 0.0})
            agg["count"] += sp["count"]
            agg["total_s"] += sp["total_s"]
            if sp["max_s"] > agg["max_s"]:
                agg["max_s"] = sp["max_s"]
    return {sec: dict(sorted(vals.items())) for sec, vals in out.items()}


def summary_of_snapshot(snap: dict) -> dict:
    """The flat summary a snapshot's source registry would produce."""
    reg = Registry()
    reg.merge(snap)
    return registry_summary(reg)


# ---------------------------------------------------------------------------
# the sweep observer
# ---------------------------------------------------------------------------

def cell_label(key: Hashable) -> str:
    """How a cell key is named in the merged trace, the supervisor's
    event log, the journal and the cell cache: a string as it is, a key
    with a ``cell_label()`` method (a ``GangConfig``) by that short
    label, anything else by its repr."""
    if isinstance(key, str):
        return key
    short = getattr(key, "cell_label", None)
    return short() if callable(short) else repr(key)


class SweepObserver:
    """Fold per-cell telemetry payloads into one sweep-level view.

    ``registry`` is the merged :class:`~repro.obs.registry.Registry`
    feeding the cross-cell Chrome trace: every absorbed cell's spans
    land under a track prefix built from its cell key (repeat keys are
    disambiguated with ``#n``), plus one ``cell`` marker span per cell
    covering ``[0, makespan)`` so cells without switch-phase spans
    (batch mode) still appear as a track of their own.

    :meth:`summary` is computed from the per-cell summaries, not from
    the merged registry — see :func:`merge_summaries`.
    """

    def __init__(self) -> None:
        #: the merged registry (spans prefixed per cell)
        self.registry = Registry()
        self._summaries: list[tuple[str, dict]] = []
        self._prefix_counts: dict[str, int] = {}
        #: results absorbed without a telemetry payload (e.g. cache
        #: hits stored by an obs-off run, or non-dict cell results)
        self.cells_skipped = 0
        #: cells per persistent-executor worker id, from the
        #: ``_perf["worker"]`` annotation (empty for serial / legacy
        #: pool sweeps, which have no stable worker identity); shows
        #: how evenly the work-stealing scheduler spread the sweep
        self.worker_cells: dict[int, int] = {}

    @property
    def cell_count(self) -> int:
        """Number of cells whose telemetry was absorbed."""
        return len(self._summaries)

    def cell_summaries(self) -> dict[str, dict]:
        """Per-cell flat summaries, keyed by the cell's track prefix."""
        return dict(self._summaries)

    def _prefix(self, key: Hashable) -> str:
        base = cell_label(key)
        n = self._prefix_counts.get(base, 0)
        self._prefix_counts[base] = n + 1
        return base if n == 0 else f"{base}#{n + 1}"

    def absorb(self, key: Hashable, result: Any) -> bool:
        """Fold one cell result's shipped telemetry; True if absorbed."""
        perf = result.get("_perf") if isinstance(result, dict) else None
        if isinstance(perf, dict) and isinstance(perf.get("worker"),
                                                 int):
            wid = perf["worker"]
            self.worker_cells[wid] = self.worker_cells.get(wid, 0) + 1
        snap = perf.get("obs_snapshot") if isinstance(perf, dict) else None
        if not isinstance(snap, dict):
            self.cells_skipped += 1
            return False
        prefix = self._prefix(key)
        self.registry.merge(snap, track_prefix=prefix)
        # one marker span per cell on the same trace process its own
        # spans map to (or the bare prefix when it recorded none), so
        # every cell — including span-free batch cells — gets exactly
        # one distinct track group in the merged trace
        proc = ""
        if snap.get("spans"):
            proc = snap["spans"][0][1].rpartition("/")[0]
        track = f"{prefix}/{proc}/sweep" if proc else f"{prefix}/sweep"
        end = result.get("makespan")
        end = float(end) if isinstance(end, (int, float)) else 0.0
        self.registry.spans.append(
            Span(CELL_MARKER, track, 0.0, end, {"key": prefix}))
        cell_summary = perf.get("obs")
        if not isinstance(cell_summary, dict):
            cell_summary = summary_of_snapshot(snap)
        self._summaries.append((prefix, cell_summary))
        return True

    def absorb_results(self, merged: Mapping[Hashable, Any]) -> int:
        """Absorb a merged sweep record; returns the absorbed count."""
        return sum(self.absorb(k, v) for k, v in merged.items())

    def summary(self) -> dict:
        """Elementwise sum of the absorbed per-cell summaries.

        Exact by construction: the fold happens on the per-cell
        aggregates themselves, so the result equals the sum of the
        cells' ``summary()`` dicts — including span totals, which a
        re-aggregation over the merged registry's raw spans could
        perturb in the last float ulp.
        """
        return merge_summaries(s for _, s in self._summaries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SweepObserver(cells={self.cell_count}, "
                f"skipped={self.cells_skipped}, registry={self.registry!r})")


_default_sweep: Optional[SweepObserver] = None


def get_default_sweep() -> Optional[SweepObserver]:
    """The process-wide default sweep observer (``None`` = off)."""
    return _default_sweep


def set_default_sweep(obs: Optional[SweepObserver]) -> None:
    """Install (or with ``None`` remove) the default sweep observer."""
    global _default_sweep
    _default_sweep = obs


# ---------------------------------------------------------------------------
# supervisor event log
# ---------------------------------------------------------------------------

class SweepEventLog:
    """Structured supervision event log: in-memory, optionally JSONL.

    Every entry carries ``seq`` (monotonic), ``t`` (host epoch
    seconds), ``event``, and — for cell-scoped events — ``key`` (the
    cell key's :func:`cell_label`) and ``attempt`` (failed attempts
    charged so far),
    plus event-specific detail fields.  Event names emitted by the
    supervisor: ``sweep_begin``, ``persistent_begin``, ``resumed``,
    ``retry``, ``grace_extension``, ``hung_kill``, ``worker_respawn``,
    ``requeued``, ``quarantine``, ``cell_done``.
    """

    def __init__(self, path: Union[str, Path, None] = None) -> None:
        self.entries: list[dict] = []
        self.path: Optional[Path] = None
        self._fh: Optional[IO[str]] = None
        if path is not None:
            self.attach(path)

    def attach(self, path: Union[str, Path]) -> Path:
        """Mirror subsequent entries to a JSONL file (append mode)."""
        self.close_file()
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")
        return self.path

    def log(self, event: str, key: Any = None,
            attempt: Optional[int] = None, **detail: Any) -> dict:
        """Record one event; returns the entry dict."""
        entry: dict = {"seq": len(self.entries), "t": time.time(),
                       "event": event}
        if key is not None:
            entry["key"] = cell_label(key)
        if attempt is not None:
            entry["attempt"] = int(attempt)
        entry.update(detail)
        self.entries.append(entry)
        if self._fh is not None:
            self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
            self._fh.flush()
        return entry

    def named(self, event: str) -> list[dict]:
        """All entries of one event type, in order."""
        return [e for e in self.entries if e["event"] == event]

    def counts(self) -> dict[str, int]:
        """``{event: occurrences}``, name-sorted."""
        out: dict[str, int] = {}
        for e in self.entries:
            out[e["event"]] = out.get(e["event"], 0) + 1
        return dict(sorted(out.items()))

    def close_file(self) -> None:
        """Stop mirroring to the file (entries stay in memory)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def load_events(path: Union[str, Path]) -> list[dict]:
    """Read a :class:`SweepEventLog` JSONL file back.

    Returns ``[]`` when the file is missing or is not an event log
    (any line that fails to parse as an ``{"event": ...}`` object
    disqualifies the whole file) — callers use that to sniff file
    types.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return []
    events: list[dict] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            return []
        if not isinstance(obj, dict) or "event" not in obj:
            return []
        events.append(obj)
    return events


def _fmt_detail(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


def render_event_table(events: list[dict],
                       title: str = "Supervisor events") -> str:
    """ASCII table of event-log entries (for ``repro obs``)."""
    if not events:
        return f"{title}\n<no events recorded>"
    rows = []
    for e in events:
        detail = {k: v for k, v in e.items()
                  if k not in ("seq", "t", "event", "key", "attempt")}
        rows.append((
            e.get("seq", ""),
            e.get("event", "?"),
            str(e.get("key", "")),
            "" if e.get("attempt") is None else e["attempt"],
            ", ".join(f"{k}={_fmt_detail(v)}"
                      for k, v in sorted(detail.items())),
        ))
    # Imported lazily: repro.metrics pulls in the scheduler stack, which
    # itself imports repro.obs — a module-level import would be circular.
    from repro.metrics.report import format_table

    return format_table(("#", "event", "cell", "attempt", "detail"),
                        rows, title=title)


# ---------------------------------------------------------------------------
# live progress / ETA ticker
# ---------------------------------------------------------------------------

def _fmt_rate(rate: float) -> str:
    if rate >= 1e6:
        return f"{rate / 1e6:.1f}M"
    if rate >= 1e3:
        return f"{rate / 1e3:.1f}k"
    return f"{rate:.0f}"


def _fmt_eta(eta_s: float) -> str:
    eta = max(0, int(round(eta_s)))
    h, rem = divmod(eta, 3600)
    m, s = divmod(rem, 60)
    if h:
        return f"{h}h{m:02d}m"
    if m:
        return f"{m}m{s:02d}s"
    return f"{s}s"


class ProgressTicker:
    """Single-line live progress display for long sweeps.

    Renders ``sweep D/T done · R running [· Q quarantined] · X ev/s ·
    ETA E`` to ``stream`` (default stderr) with carriage-return
    rewriting, throttled to ``min_interval_s``.  ``enabled=None``
    auto-detects: on only when the stream is a TTY, so redirected and
    CI output is never polluted.  Rates use *events_dispatched* — the
    host-work counter — accumulated from settled cells.
    """

    def __init__(self, total: int, done: int = 0, stream=None,
                 enabled: Optional[bool] = None,
                 min_interval_s: float = 0.2,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.stream = stream if stream is not None else sys.stderr
        if enabled is None:
            enabled = bool(getattr(self.stream, "isatty",
                                   lambda: False)())
        self.enabled = enabled
        self.total = total
        self.done = done
        self.running = 0
        self.quarantined = 0
        self.events = 0.0
        self._clock = clock
        self._t0 = clock()
        self._min_interval = min_interval_s
        self._last_render = float("-inf")
        self._last_len = 0
        self._rendered = False

    def add_events(self, n: float) -> None:
        """Credit dispatched events from one settled cell."""
        self.events += n

    def render_line(self, eta_s: Optional[float] = None) -> str:
        """The current status line (no terminal control characters)."""
        elapsed = max(1e-9, self._clock() - self._t0)
        rate = self.events / elapsed
        parts = [f"sweep {self.done}/{self.total} done",
                 f"{self.running} running"]
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.events > 0:
            parts.append(f"{_fmt_rate(rate)} ev/s")
        if eta_s is not None:
            parts.append(f"ETA {_fmt_eta(eta_s)}")
        return " · ".join(parts)

    def update(self, done: Optional[int] = None,
               running: Optional[int] = None,
               quarantined: Optional[int] = None,
               eta_s: Optional[float] = None,
               force: bool = False) -> None:
        """Refresh the state and (rate-limited) redraw the line."""
        if done is not None:
            self.done = done
        if running is not None:
            self.running = running
        if quarantined is not None:
            self.quarantined = quarantined
        if not self.enabled:
            return
        now = self._clock()
        if not force and now - self._last_render < self._min_interval:
            return
        self._last_render = now
        line = self.render_line(eta_s)
        pad = " " * max(0, self._last_len - len(line))
        self.stream.write("\r" + line + pad)
        self.stream.flush()
        self._last_len = len(line)
        self._rendered = True

    def close(self) -> None:
        """Terminate the live line with a newline (if anything drew)."""
        if self.enabled and self._rendered:
            self.stream.write("\n")
            self.stream.flush()


__all__ = [
    "ProgressTicker",
    "SweepEventLog",
    "SweepObserver",
    "cell_label",
    "get_default_sweep",
    "load_events",
    "merge_summaries",
    "render_event_table",
    "set_default_sweep",
    "summary_of_snapshot",
]
