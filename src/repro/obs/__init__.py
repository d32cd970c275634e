"""Unified telemetry: counters, switch-phase spans, trace export.

The observability layer of the reproduction.  Components throughout
:mod:`repro.sim` / :mod:`repro.mem` / :mod:`repro.core` /
:mod:`repro.disk` / :mod:`repro.gang` accept an ``obs`` registry and
emit named counters, histograms and switch-phase spans into it; the
exporters in :mod:`repro.obs.export` turn one registry into a Chrome
trace (``chrome://tracing`` / Perfetto), a JSONL stream, or a flat
summary dict.

Disabled by default: every instrumented component defaults to
:data:`NULL_OBS`, whose methods are no-ops (the
:class:`~repro.sim.tracing.EventTracer` trick).  Telemetry never
creates simulation events, so enabling it cannot perturb simulated
time — instrumented and uninstrumented runs are bit-for-bit identical
in makespan and event counts (enforced by ``tests/obs``).

Process default
---------------
The CLI enables telemetry for a whole experiment invocation without
threading a registry through every harness: :func:`set_default`
installs a registry that :func:`repro.experiments.runner.run_experiment`
picks up when no explicit ``obs`` is passed.  The default is
process-local — parallel sweep workers (``--jobs N``) do not inherit
it; use ``run_cell(cfg, obs_enabled=True)`` for per-cell summaries
that merge through the ``"_perf"`` quarantine instead.

Sweep scale
-----------
:mod:`repro.obs.sweep` extends the single-process registry across a
multi-process sweep: workers ship ``Registry.snapshot()`` payloads
through the ``"_perf"`` channel and a :class:`SweepObserver` merges
them into one sweep-level registry (per-cell trace tracks, exact
summed summaries), plus the supervisor event log and the live
progress ticker.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.obs.export import (
    PHASE_ORDER,
    chrome_trace,
    load_spans,
    phase_breakdown,
    render_counter_table,
    render_phase_table,
    summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    NULL_OBS,
    NullRegistry,
    Registry,
    Span,
)
from repro.obs.sweep import (
    ProgressTicker,
    SweepEventLog,
    SweepObserver,
    get_default_sweep,
    load_events,
    merge_summaries,
    render_event_table,
    set_default_sweep,
)

_default: Union[Registry, NullRegistry] = NULL_OBS


def get_default() -> Union[Registry, NullRegistry]:
    """The process-wide default registry (NULL_OBS unless installed)."""
    return _default


def set_default(reg: Optional[Registry]) -> None:
    """Install (or with ``None`` remove) the process default registry."""
    global _default
    _default = reg if reg is not None else NULL_OBS


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_OBS",
    "NullRegistry",
    "PHASE_ORDER",
    "ProgressTicker",
    "Registry",
    "Span",
    "SweepEventLog",
    "SweepObserver",
    "chrome_trace",
    "get_default",
    "get_default_sweep",
    "load_events",
    "load_spans",
    "merge_summaries",
    "phase_breakdown",
    "render_counter_table",
    "render_event_table",
    "render_phase_table",
    "set_default",
    "set_default_sweep",
    "summary",
    "write_chrome_trace",
    "write_jsonl",
]
