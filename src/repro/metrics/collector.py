"""Event collection for paging traces and switch records."""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(frozen=True, slots=True)
class PagingEvent:
    """One completed disk transfer (a page-in or page-out burst).

    Slotted: the collector makes one per disk request, and a frozen
    dataclass's field-by-field ``__init__`` runs about twice as fast
    without an instance dict."""

    node: str
    op: str          # "read" (page-in) or "write" (page-out)
    pages: int
    start: float
    end: float
    pid: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class MetricsCollector:
    """Records paging events and switches across a whole cluster."""

    def __init__(self) -> None:
        self.paging: list[PagingEvent] = []
        self.switches: list = []
        self.nodes: list = []
        # sort keys parallel to `paging` (see attach_node); kept in a
        # separate list so `paging` stays a plain list of events that
        # tests and consumers may read (or even append to) directly
        self._pkeys: list = []
        self.scheduler = None
        self.faults = None
        self.registry = None
        self._registry_run: Optional[str] = None

    # -- wiring ----------------------------------------------------------
    def attach_node(self, node) -> None:
        """Hook a node's disk completions (call before running).

        Events are kept in the canonical ``(end, node)`` order rather
        than hook-invocation order: the batch-advance tier commits a
        whole run of completions at once (future-stamped, before other
        nodes' interleaved events are appended), and same-instant
        completions on different nodes pop in heap order, which is an
        implementation detail.  Sorted insertion makes the trace
        identical across execution modes — per-node ends strictly
        increase (every transfer has positive duration), so the key is
        a strict total order, and in-order appends stay O(1).  Nodes
        are ranked by attach order, not name (lexicographic ordering
        would misplace ``node10`` before ``node2``).
        """
        name = node.name
        node_rank = len(self.nodes)
        self.nodes.append(node)
        paging = self.paging
        keys = self._pkeys

        def hook(req, start, end, _name=name, _rank=node_rank):
            key = (end, _rank)
            ev = PagingEvent(_name, req.op, req.npages, start, end, req.pid)
            if not keys or key >= keys[-1]:
                keys.append(key)
                paging.append(ev)
            else:
                i = bisect(keys, key)
                keys.insert(i, key)
                paging.insert(i, ev)

        def run_hook(op, sizes, starts, ends, pid,
                     _name=name, _rank=node_rank):
            # a whole eager run at once: per-node ends strictly
            # increase, so the run's keys are pre-sorted and the
            # result of per-event bisect insertion is a stable merge
            # with whatever future-stamped tail already exists
            new_keys = [(e, _rank) for e in ends]
            evs = [PagingEvent(_name, op, n, s, e, pid)
                   for n, s, e in zip(sizes, starts, ends)]
            if not keys or new_keys[0] >= keys[-1]:
                keys.extend(new_keys)
                paging.extend(evs)
                return
            i = bisect(keys, new_keys[0])
            if new_keys[-1] <= keys[i]:
                # the run fits in one gap: contiguous splice
                keys[i:i] = new_keys
                paging[i:i] = evs
                return
            tk = keys[i:]
            tp = paging[i:]
            del keys[i:]
            del paging[i:]
            a = 0
            b = 0
            na = len(new_keys)
            nb = len(tk)
            while a < na and b < nb:
                if new_keys[a] < tk[b]:
                    keys.append(new_keys[a])
                    paging.append(evs[a])
                    a += 1
                else:
                    keys.append(tk[b])
                    paging.append(tp[b])
                    b += 1
            if a < na:
                keys.extend(new_keys[a:])
                paging.extend(evs[a:])
            else:
                keys.extend(tk[b:])
                paging.extend(tp[b:])

        node.disk.on_complete = hook
        node.disk.on_complete_run = run_hook

    def attach_scheduler(self, sched) -> None:
        """Keep a handle on the scheduler for eviction accounting."""
        self.scheduler = sched

    def attach_faults(self, plan) -> None:
        """Keep a handle on the fault plan for injection accounting."""
        self.faults = plan

    def attach_registry(self, registry) -> None:
        """Use an obs :class:`~repro.obs.registry.Registry` as the
        source for :meth:`fault_summary` counters.

        The registry's *current* run scope is remembered, so a
        multi-cell registry still yields per-run summaries.  A disabled
        (null) registry is ignored — attribute scraping stays in effect.
        """
        if registry is not None and registry.enabled:
            self.registry = registry
            self._registry_run = registry.current_run
        else:
            self.registry = None
            self._registry_run = None

    def detach_all(self) -> None:
        """Drop every attached handle (nodes, scheduler, faults,
        registry) so the collector can be reused across runs without
        stale references keeping dead simulations alive."""
        self.nodes.clear()
        self.scheduler = None
        self.faults = None
        self.registry = None
        self._registry_run = None

    def on_switch(self, record) -> None:
        """Scheduler switch callback (pass as ``on_switch=``)."""
        self.switches.append(record)

    # -- analysis ----------------------------------------------------------
    def pages_moved(self, op: Optional[str] = None,
                    node: Optional[str] = None) -> int:
        """Total pages transferred, optionally filtered by op/node."""
        return sum(
            e.pages
            for e in self.paging
            if (op is None or e.op == op) and (node is None or e.node == node)
        )

    def io_busy_seconds(self, node: Optional[str] = None) -> float:
        """Total disk-busy time spent on paging."""
        return sum(
            e.duration for e in self.paging
            if node is None or e.node == node
        )

    def paging_series(
        self,
        bin_s: float,
        t_end: Optional[float] = None,
        node: Optional[str] = None,
    ) -> dict[str, np.ndarray]:
        """Bin paging activity over time — the Figure 6 traces.

        Returns ``{"t": bin_starts, "read": pages/bin, "write": pages/bin}``.
        A transfer's pages land in the bin of its completion time.
        """
        if bin_s <= 0:
            raise ValueError("bin_s must be positive")
        events = [e for e in self.paging if node is None or e.node == node]
        horizon = t_end if t_end is not None else (
            max((e.end for e in events), default=0.0)
        )
        nbins = max(1, int(np.ceil(horizon / bin_s)))
        t = np.arange(nbins) * bin_s
        series = {
            "t": t,
            "read": np.zeros(nbins),
            "write": np.zeros(nbins),
        }
        for e in events:
            idx = min(nbins - 1, int(e.end / bin_s))
            series[e.op][idx] += e.pages
        return series

    def switch_paging_windows(self, window_s: float) -> list[tuple[float, int]]:
        """Pages moved within ``window_s`` after each switch start."""
        out = []
        for rec in self.switches:
            t0 = rec.started_at
            pages = sum(
                e.pages for e in self.paging if t0 <= e.end < t0 + window_s
            )
            out.append((t0, pages))
        return out

    def fault_summary(self) -> dict:
        """Injected faults and the system's graceful responses.

        ``injected`` counts draws that hit (from the fault plan);
        everything else counts the *responses* — retries, fallbacks,
        evictions.  With a registry attached (:meth:`attach_registry`)
        the response counts come from the telemetry counters; otherwise
        they are scraped off the attached nodes and scheduler.  Both
        paths agree exactly — the counters mirror the attributes.  All
        zeros (and no evictions) in a fault-free run.
        """
        summary: dict = {
            "injected": dict(self.faults.counters)
            if self.faults is not None
            else {},
            "disk_retries": 0,
            "disk_failed_requests": 0,
            "disk_latency_spikes": 0,
            "ai_fallbacks": 0,
            "records_lost": 0,
            "records_corrupted": 0,
            "bg_write_failures": 0,
            "jobs_evicted": 0,
            "straggler_extensions": 0,
            "evictions": [],
        }
        if self.registry is not None:
            reg, run = self.registry, self._registry_run
            scope = {"run": run} if run is not None else {}
            for key, counter in (
                ("disk_retries", "disk_retries"),
                ("disk_failed_requests", "disk_failed_requests"),
                ("disk_latency_spikes", "disk_latency_spikes"),
                ("ai_fallbacks", "ai_fallbacks"),
                ("records_lost", "ai_records_lost"),
                ("records_corrupted", "ai_records_corrupted"),
                ("bg_write_failures", "bg_write_failures"),
                ("jobs_evicted", "jobs_evicted"),
                ("straggler_extensions", "straggler_extensions"),
            ):
                summary[key] = int(reg.value(counter, **scope))
        else:
            for node in self.nodes:
                summary["disk_retries"] += node.disk.retry_count
                summary["disk_failed_requests"] += node.disk.failed_requests
                summary["disk_latency_spikes"] += node.disk.latency_spikes
                ap = node.adaptive
                summary["ai_fallbacks"] += ap.ai_fallbacks
                if ap.recorder is not None:
                    summary["records_lost"] += ap.recorder.records_lost
                    summary["records_corrupted"] += (
                        ap.recorder.records_corrupted
                    )
                if ap.bgwriter is not None:
                    summary["bg_write_failures"] += ap.bgwriter.write_failures
            sched = self.scheduler
            if sched is not None and hasattr(sched, "evictions"):
                summary["jobs_evicted"] = len(sched.evictions)
                summary["straggler_extensions"] = sched.straggler_extensions
        sched = self.scheduler
        if sched is not None and hasattr(sched, "evictions"):
            summary["evictions"] = [
                {"at": r.at, "job": r.job, "cause": r.cause}
                for r in sched.evictions
            ]
        return summary

    def clear(self) -> None:
        """Reset the collector for a fresh run.

        Drops recorded events and switches *and* every attached handle —
        previously ``nodes``/``scheduler``/``faults`` survived a clear,
        so a reused collector double-counted old nodes in
        :meth:`fault_summary`.
        """
        self.paging.clear()
        self._pkeys.clear()
        self.switches.clear()
        self.detach_all()


__all__ = ["MetricsCollector", "PagingEvent"]
