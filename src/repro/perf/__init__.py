"""Parallel experiment execution: the cell model (in-process for one
job, persistent warm workers for more), supervised resilient sweeps,
result caching and perf instrumentation."""

from repro.perf.backend import PersistentBackend, resolve_jobs
from repro.perf.cache import (
    CellCache,
    code_version,
    fingerprint,
    get_default_cache,
    set_default_cache,
)
from repro.perf.journal import SweepJournal, fsync_dir, sweep_id
from repro.perf.persistent import (
    PersistentExecutor,
    SpecTable,
    StealScheduler,
    get_default_executor,
    shutdown_default_executor,
)
from repro.perf.pool import Cell, run_cells
from repro.perf.supervisor import (
    FAILED_KEY,
    QuarantinedCells,
    Supervisor,
    SupervisorConfig,
    get_default_supervisor,
    quarantined,
    require_ok,
    set_default_supervisor,
)

__all__ = [
    "Cell",
    "CellCache",
    "FAILED_KEY",
    "PersistentBackend",
    "PersistentExecutor",
    "QuarantinedCells",
    "SpecTable",
    "StealScheduler",
    "Supervisor",
    "SupervisorConfig",
    "SweepJournal",
    "code_version",
    "fingerprint",
    "fsync_dir",
    "get_default_cache",
    "get_default_executor",
    "get_default_supervisor",
    "quarantined",
    "require_ok",
    "resolve_jobs",
    "run_cells",
    "set_default_cache",
    "set_default_supervisor",
    "shutdown_default_executor",
    "sweep_id",
]
