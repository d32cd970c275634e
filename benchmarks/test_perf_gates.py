"""Wall-clock gates: the fig6 LRU cell floor, the persistent-sweep
speedup and the two telemetry-overhead budgets.

Tier-1 (``tests/``) pins what the simulator computes; these tests pin
how long it takes, so tier-1 does not collect them.  CI runs
``-k fig6`` in its test job and ``-k speedup`` on its 4-vCPU leg.  The
telemetry budgets are run by hand::

    PYTHONPATH=src python -m pytest -q benchmarks/test_perf_gates.py
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments import multi_seed
from repro.experiments.runner import GangConfig, run_experiment
from repro.gang.job import Job
from repro.obs import Registry, SweepObserver
from repro.perf import run_cells

REPO_ROOT = Path(__file__).resolve().parent.parent

#: the Figure-6 LRU cell — the paper's headline trace configuration
FIG6_LRU = GangConfig("LU", "C", nprocs=4, policy="lru", seed=1, scale=0.5)

#: a fig6 wall above the floor committed in ``BENCH_PR7.json`` times
#: this factor is a regression
REGRESSION_FACTOR = 1.2

#: serial wall / persistent wall at :data:`SPEEDUP_JOBS` workers, after
#: a warm-up sweep; a host with fewer CPUs than workers cannot meet it
SPEEDUP_TARGET = 1.5
SPEEDUP_JOBS = 4

#: telemetry may cost this fraction of the wall clock, or else this
#: many microseconds per simulated event (the sweep bound is looser:
#: it also ships one snapshot and summary per cell)
OBS_BUDGET_FRAC = 0.05
OBS_CELL_BUDGET_US = 2.0
OBS_SWEEP_BUDGET_US = 3.0


def _timed(fn, *args, **kwargs):
    """``(wall seconds, result)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _sweep_grid(scale):
    """The multi-seed (seed, mode) grid: LU.B on one node, seeds 1-4."""
    base = GangConfig("LU", "B", nprocs=1, scale=scale)
    return multi_seed.cell_grid(base, "so/ao/ai/bg", (1, 2, 3, 4))


def _check_obs_budget(plain_s, obs_s, events, per_event_budget_us):
    overhead = obs_s / plain_s - 1.0
    per_event_us = (obs_s - plain_s) / events * 1e6
    assert overhead <= OBS_BUDGET_FRAC \
        or per_event_us <= per_event_budget_us, (
            f"telemetry overhead {overhead:.1%} ({per_event_us:.2f} "
            f"us/event) exceeds both the {OBS_BUDGET_FRAC:.0%} and the "
            f"{per_event_budget_us} us/event budgets")


def test_fig6_lru_wall_within_committed_floor():
    bench = json.loads((REPO_ROOT / "BENCH_PR7.json").read_text())
    floor = bench["smoke_floor"]["floor_wall_s"]
    limit = floor * REGRESSION_FACTOR
    walls = []
    for _ in range(2):
        Job._next_jid = 1
        walls.append(_timed(run_experiment, FIG6_LRU)[0])
    assert min(walls) <= limit, (
        f"fig6 LRU cell took {min(walls):.3f}s, over {limit:.3f}s "
        f"({REGRESSION_FACTOR}x the committed floor {floor:.3f}s)")


@pytest.mark.skipif(
    (os.cpu_count() or 1) < SPEEDUP_JOBS,
    reason=f"the {SPEEDUP_TARGET}x sweep-speedup floor needs "
           f">= {SPEEDUP_JOBS} CPUs; this host has {os.cpu_count()}")
def test_persistent_sweep_speedup():
    cells = _sweep_grid(0.05)
    run_cells(cells[:SPEEDUP_JOBS], jobs=SPEEDUP_JOBS)  # warm the workers
    serial = min(_timed(run_cells, cells, jobs=1)[0] for _ in range(2))
    persistent = min(_timed(run_cells, cells, jobs=SPEEDUP_JOBS)[0]
                     for _ in range(2))
    speedup = serial / persistent
    assert speedup >= SPEEDUP_TARGET, (
        f"sweep speedup {speedup:.2f}x ({serial:.3f}s serial, "
        f"{persistent:.3f}s persistent) is below the {SPEEDUP_TARGET}x "
        f"floor at {SPEEDUP_JOBS} jobs on a {os.cpu_count()}-cpu host")


def test_obs_overhead_within_cell_budget():
    # plain and instrumented runs alternate so host-load drift hits both
    plain, instrumented = [], []
    for _ in range(3):
        wall, res = _timed(run_experiment, FIG6_LRU)
        plain.append(wall)
        instrumented.append(
            _timed(run_experiment, FIG6_LRU, obs=Registry())[0])
    _check_obs_budget(min(plain), min(instrumented), res.events_processed,
                      OBS_CELL_BUDGET_US)


def test_obs_overhead_within_sweep_budget():
    # serial against serial, so pool scheduling noise stays out
    cells = _sweep_grid(0.1)
    plain, instrumented = [], []
    for _ in range(3):
        plain.append(_timed(run_cells, cells, jobs=1)[0])
        wall, merged = _timed(run_cells, cells, jobs=1,
                              sweep_obs=SweepObserver())
        instrumented.append(wall)
    events = sum(r["events_simulated"] for r in merged.values())
    _check_obs_budget(min(plain), min(instrumented), events,
                      OBS_SWEEP_BUDGET_US)
