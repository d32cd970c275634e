"""Module-level cell functions shared by the executor-backend tests.

Spawn/forkserver workers re-import cell functions by qualified name, so
everything a backend test dispatches must live in an importable module
(the same reason ``tests.perf._resume_cells`` exists).  Both the pytest
process and every worker import this module under
``tests.perf._backend_cells``, keeping PR 4 fingerprints identical
across processes.
"""

import os
import time
from pathlib import Path


def square(x):
    return {"x": x, "sq": x * x}


def sq_delay(x, delay_s):
    """Deterministic result, tunable wall time — the knob adversarial
    completion-order tests turn (the delay changes ``_perf``-free
    output not at all)."""
    time.sleep(delay_s)
    return {"x": x, "sq": x * x}


def whoami(x):
    """Nondeterministic on purpose: reports the executing pid, so tests
    can prove where a cell actually ran."""
    return {"x": x, "pid": os.getpid()}


def perf_cell(x):
    """A cell that ships its own ``_perf`` quarantine, like the real
    experiment runner does."""
    return {"x": x, "sq": x * x, "_perf": {"from_cell": True}}


def boom(msg):
    raise ValueError(msg)


def flaky_file(counter, fail_times):
    """Fail the first ``fail_times`` calls ever made (any process),
    tracked through the filesystem."""
    path = Path(counter)
    n = int(path.read_text()) if path.exists() else 0
    path.write_text(str(n + 1))
    if n < fail_times:
        raise RuntimeError(f"flaky attempt {n}")
    return {"ok": True}
