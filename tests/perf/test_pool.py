"""Unit tests for the cell pool (repro.perf.pool)."""

import pytest

from repro.gang.job import Job
from repro.perf.pool import Cell, _execute, run_cells


# Cell functions must be module-level so workers can unpickle them.
def square(x):
    return x * x


def next_jid():
    jid = Job._next_jid
    Job._next_jid += 1
    return jid


def boom():
    raise RuntimeError("cell failure")


def test_serial_and_parallel_agree_and_preserve_order():
    cells = [Cell(("sq", i), square, {"x": i}) for i in range(8)]
    serial = run_cells(cells, jobs=1)
    parallel = run_cells(cells, jobs=3)
    assert serial == parallel
    assert list(serial) == [("sq", i) for i in range(8)]
    assert serial[("sq", 5)] == 25


def test_jid_counter_reset_per_cell_in_both_paths():
    cells = [Cell(i, next_jid, {}) for i in range(3)]
    # serial: every cell sees a fresh counter, not the previous cell's
    assert list(run_cells(cells, jobs=1).values()) == [1, 1, 1]
    # parallel: workers may reuse a process; the reset still applies
    assert list(run_cells(cells, jobs=2).values()) == [1, 1, 1]


def test_execute_resets_global_jid():
    Job._next_jid = 99
    assert _execute(Cell("x", next_jid, {}), False) == 1


def test_duplicate_keys_rejected():
    cells = [Cell("same", square, {"x": 1}), Cell("same", square, {"x": 2})]
    with pytest.raises(ValueError, match="duplicate cell key"):
        run_cells(cells)


def test_non_picklable_fn_rejected_at_declaration():
    with pytest.raises(ValueError, match="module-level"):
        Cell("k", lambda: None, {})

    def local_fn():
        return 1

    with pytest.raises(ValueError, match="module-level"):
        Cell("k", local_fn, {})


def test_jobs_must_be_positive():
    with pytest.raises(ValueError, match="jobs"):
        run_cells([Cell("k", square, {"x": 1})], jobs=0)


def test_cell_exception_propagates_serial_and_parallel():
    cells = [Cell("ok", square, {"x": 2}), Cell("bad", boom, {})]
    with pytest.raises(RuntimeError, match="cell failure"):
        run_cells(cells, jobs=1)
    with pytest.raises(RuntimeError, match="cell failure"):
        run_cells(cells, jobs=2)


def test_empty_grid():
    assert run_cells([]) == {}
    assert run_cells([], jobs=4) == {}
