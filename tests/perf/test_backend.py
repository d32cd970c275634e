"""The sweep executor path (repro.perf.backend): jobs parsing, the
in-process ``jobs=1`` path, and the bare parallel path's identity and
failure contracts on the supervisor's loop."""

import json
import os

import pytest

from repro.experiments.report_io import _sanitise
from repro.perf import Cell, run_cells
from repro.perf.backend import resolve_jobs

from tests.perf import _backend_cells as bc


def canon(merged):
    """Byte-identity form: JSON with the ``_perf`` quarantine stripped."""
    strip = {
        k: ({kk: vv for kk, vv in v.items() if kk != "_perf"}
            if isinstance(v, dict) else v)
        for k, v in merged.items()
    }
    return json.dumps(_sanitise(strip), sort_keys=True)


def make_grid(n=8):
    return [Cell(("sq", i), bc.square, {"x": i}) for i in range(n)]


# ---------------------------------------------------------------------------
# jobs parsing
# ---------------------------------------------------------------------------
def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs("3") == 3
    assert resolve_jobs("auto") == (os.cpu_count() or 1)
    with pytest.raises(ValueError, match="jobs"):
        resolve_jobs(0)


# ---------------------------------------------------------------------------
# execution contracts
# ---------------------------------------------------------------------------
def test_jobs_one_stays_in_process():
    cells = [Cell(("who", i), bc.whoami, {"x": i}) for i in range(4)]
    merged = run_cells(cells, jobs=1)
    assert {r["pid"] for r in merged.values()} == {os.getpid()}
    # more than one job leaves the process for the warm workers
    merged = run_cells(cells, jobs=2)
    assert os.getpid() not in {r["pid"] for r in merged.values()}


def test_cross_backend_identity():
    # in-process jobs=1 against the persistent workers at jobs=3
    cells = make_grid(8)
    reference = canon(run_cells(cells, jobs=1))
    merged = run_cells(cells, jobs=3)
    assert canon(merged) == reference
    assert list(merged) == [c.key for c in cells]


def test_persistent_failure_is_fail_fast_and_deterministic():
    cells = make_grid(8)
    cells[2] = Cell(("boom", 2), bc.boom, {"msg": "first bad cell"})
    cells[5] = Cell(("boom", 5), bc.boom, {"msg": "second bad cell"})
    # the earliest-declared failing cell wins no matter which worker
    # finished first, and the original exception type/message survive
    # the pipe
    with pytest.raises(ValueError, match="first bad cell"):
        run_cells(cells, jobs=3)


def test_bare_worker_death_names_cell_and_exit_code():
    cells = make_grid(6)
    cells[2] = Cell(("exit", 2), bc.exit_code, {"code": 3})
    with pytest.raises(RuntimeError,
                       match=r"exit 3\) while running cell 2\b"):
        run_cells(cells, jobs=2)
    # the executor that lost a worker still serves the next bare sweep
    cells = make_grid(6)
    assert canon(run_cells(cells, jobs=2)) == canon(run_cells(cells,
                                                              jobs=1))


def test_bare_sweep_needs_no_fingerprint():
    # without a cache nothing fingerprints the kwargs, so a frozenset
    # (picklable but not fingerprintable) is fine
    cells = [Cell(("n", i), bc.count_members,
                  {"members": frozenset(range(i))}) for i in range(4)]
    merged = run_cells(cells, jobs=2)
    assert [r["n"] for r in merged.values()] == [0, 1, 2, 3]
