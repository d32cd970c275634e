"""Cells for the kill-then-resume integration test.

Both the pytest process and the SIGKILL'd child sweep import this
module under the same dotted name (``tests.perf._resume_cells``) so the
cell fingerprints — which embed the function's module and qualname —
match across the two processes, and the child's journal can be resumed
by the parent.
"""

import time
from pathlib import Path


def slow_cell(tag, delay_s, ping_dir=""):
    """Deterministic result; the sleep leaves time to SIGKILL the sweep
    mid-flight, the ping file records that the cell body actually ran."""
    if ping_dir:
        Path(ping_dir, f"{tag}.ping").write_text("ran")
    time.sleep(delay_s)
    return {"tag": tag, "value": 7 * len(tag) + delay_s}


def make_cells(n, delay_s, ping_dir=""):
    from repro.perf import Cell

    return [
        Cell(("cell", i), slow_cell,
             {"tag": f"c{i}", "delay_s": delay_s, "ping_dir": ping_dir})
        for i in range(n)
    ]


def run_sweep(journal_dir, jobs, delay_s, n, ping_dir=""):
    """One journaled, resumable supervised sweep (parent and child both
    call this, so interrupted and resuming runs are configured alike;
    the child is a separate process, so the fast watchdog poll is set
    here rather than by a test fixture)."""
    from repro.perf import Supervisor, SupervisorConfig, supervisor

    supervisor.POLL_INTERVAL_S = 0.02
    sup = Supervisor(SupervisorConfig(
        journal=True, resume=True, journal_dir=journal_dir,
        cell_timeout_s=120.0,
    ))
    merged = sup.run(make_cells(n, delay_s, ping_dir), jobs=jobs)
    return merged, sup
