"""How a bare parallel sweep reaches the persistent warm workers.

:func:`repro.perf.pool.run_cells` runs ``jobs == 1`` sweeps (and
sweeps with at most one cell left to run) in-process; every ``jobs > 1``
sweep goes through :meth:`PersistentBackend.run` on the process-wide
warm executor (:mod:`repro.perf.persistent`).  The supervised path
(:class:`~repro.perf.supervisor.Supervisor`) drives the same executor
with its own loop.

Contract (see DESIGN.md §8 for the normative text):

1. **Deterministic merge.**  ``run`` returns one result per input
   cell *in input order*, regardless of completion order, worker
   count, or stealing.  Identity is byte-level outside the reserved
   ``"_perf"`` quarantine.
2. **State reset.**  Every execution goes through
   :func:`repro.perf.pool._execute`, so process-global state is reset
   per cell and a cell's result never depends on which worker ran it
   or what ran before.
3. **Fail-fast.**  Without a supervisor, the first cell exception
   propagates to the caller with its original type and message.
   Retries, quarantine (``"_failed"``) and fingerprint-keyed resume
   are *supervisor* semantics layered on top.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence


class PersistentBackend:
    """Bare (unsupervised) sweep on the warm-worker executor."""

    def run(self, cells: Sequence, jobs: int, capture: bool,
            prints: Optional[Sequence[str]] = None) -> list:
        """Execute ``cells``; return results in input order.

        ``prints`` is the optional list of PR 4 content fingerprints
        aligned with ``cells`` (already computed by the caller when a
        cache is active); it rides along in each task descriptor.
        """
        from repro.perf.persistent import (StealScheduler,
                                           get_default_executor)

        executor = get_default_executor()
        gen, wids = executor.begin_sweep(cells, capture=capture,
                                         jobs=min(jobs, len(cells)))
        results: list = [None] * len(cells)
        pending = set(range(len(cells)))
        sched = StealScheduler(wids)
        sched.extend(range(len(cells)))
        idle = set(wids)
        inflight: dict[int, int] = {}  # wid -> cell index
        failures: dict[int, BaseException] = {}
        try:
            while pending:
                if not failures:
                    for wid in sorted(idle):
                        index = sched.next_for(wid)
                        if index is None:
                            break
                        fp = prints[index] if prints else ""
                        try:
                            executor.dispatch(wid, index, 0, fp)
                        except (KeyError, RuntimeError, OSError):
                            # the worker died between poll and
                            # dispatch; fail fast like any other death
                            pending.discard(index)
                            failures[index] = RuntimeError(
                                f"worker {wid} died before cell "
                                f"{index} could be dispatched")
                            idle.discard(wid)
                            continue
                        inflight[wid] = index
                        idle.discard(wid)
                if not inflight:
                    break  # failed cells drained; nothing left to reap
                for ev in executor.poll(0.05):
                    if ev.kind == "result":
                        index = inflight.pop(ev.wid, None)
                        idle.add(ev.wid)
                        if index is None or ev.index != index:
                            continue  # defensive: not ours
                        pending.discard(index)
                        if ev.ok:
                            results[index] = ev.payload
                        else:
                            failures[index] = ev.payload
                    elif ev.kind == "died":
                        index = inflight.pop(ev.wid, None)
                        idle.discard(ev.wid)
                        if index is not None:
                            pending.discard(index)
                            failures[index] = RuntimeError(
                                f"worker died (exit {ev.exitcode}) "
                                f"while running cell {index}")
        finally:
            executor.end_sweep()
        if pending and not failures:  # pragma: no cover - defensive
            raise RuntimeError(
                "persistent sweep stalled: workers were lost without "
                "delivering results")
        if failures:
            # fail fast like the serial path: the *earliest declared*
            # failing cell wins, so which worker finished first never
            # changes the raised error
            raise failures[min(failures)]
        return results


def resolve_jobs(jobs) -> int:
    """Parse a job count, accepting ``"auto"`` = ``os.cpu_count()``."""
    if isinstance(jobs, str):
        if jobs.strip().lower() == "auto":
            return os.cpu_count() or 1
        jobs = int(jobs)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return jobs


__all__ = ["PersistentBackend", "resolve_jobs"]
