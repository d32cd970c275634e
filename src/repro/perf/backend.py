"""How a bare parallel sweep reaches the persistent warm workers.

:func:`repro.perf.pool.run_cells` runs ``jobs == 1`` sweeps (and
sweeps with at most one cell left to run) in-process; every other
``jobs > 1`` sweep without a supervisor goes through
:meth:`PersistentBackend.run`, which drives the supervisor's loop
(:class:`~repro.perf.supervisor.Supervisor`) with no retries, no
deadline, no journal and no telemetry.  That loop is the only code
that dispatches to and polls the warm executor
(:mod:`repro.perf.persistent`).

Contract (see DESIGN.md §8 for the normative text):

1. **Deterministic merge.**  ``run`` returns one result per input
   cell *in input order*, regardless of completion order, worker
   count, or stealing.  Identity is byte-level outside the reserved
   ``"_perf"`` quarantine.
2. **State reset.**  Every execution goes through
   :func:`repro.perf.pool._execute`, so process-global state is reset
   per cell and a cell's result never depends on which worker ran it
   or what ran before.
3. **Earliest failure raised.**  Without a supervisor, every cell
   settles and then the earliest-declared failing cell's exception
   propagates with its original type and message (a dead worker is a
   ``RuntimeError`` naming the cell and the exit code).  Retries,
   quarantine (``"_failed"``) and fingerprint-keyed resume are
   *supervisor* semantics layered on top.
"""

from __future__ import annotations

import math
import os
from typing import Sequence


class PersistentBackend:
    """Bare (unsupervised) sweep on the warm-worker executor."""

    def run(self, cells: Sequence, jobs: int, capture: bool) -> list:
        """Results of ``cells`` in input order (contract 3 on failure)."""
        from repro.obs import NULL_OBS
        from repro.perf.supervisor import (Supervisor, SupervisorConfig,
                                           _SweepBook)

        sup = Supervisor(SupervisorConfig(max_retries=0,
                                          cell_timeout_s=math.inf),
                         obs=NULL_OBS)
        book = _SweepBook(sup, cells, [None] * len(cells), range(len(cells)))
        sup._run_persistent(book, cells, jobs, capture)
        failed = [st for st in book.states.values() if st.excs]
        if failed:
            raise min(failed, key=lambda st: st.index).excs[-1]
        return book.results


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
