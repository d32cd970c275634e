"""Extension — does a kernel elevator substitute for adaptive paging?

An obvious objection to the paper: "the block layer's elevator already
reorders paging I/O — how much of the adaptive win is just scheduling?"
This experiment answers it inside the simulation: the same
overcommitted two-job LU mix runs with a distance-dependent arm model
(``a + b*sqrt(d)`` seeks) under FIFO, SSTF and C-SCAN request
dispatching, with and without the adaptive mechanisms.

Measured shape: the disciplines tie, and the table shows why — paging
I/O is *synchronous* (a faulting process submits one read and waits),
so the device queue almost never holds more than a couple of requests
and there is nothing for an elevator to reorder.  Only policy-level
batching (the adaptive mechanisms) changes the I/O pattern.  This is
the quantitative counterpart of the paper's §2 argument that fault-
driven paging serialises computation.
"""

from __future__ import annotations

from dataclasses import replace

from repro.disk.device import DISCIPLINES, DiskParams, ERA_DISK
from repro.experiments.runner import (
    GangConfig,
    mode_configs,
    run_experiment,
    run_grids,
)
from repro.metrics.analysis import overhead_fraction
from repro.metrics.report import format_table, percent

POLICIES = ("lru", "so/ao/ai/bg")

#: the era disk plus a distance-dependent arm term so that dispatch
#: order matters at all
ARM_DISK = DiskParams(
    seek_s=ERA_DISK.seek_s * 0.5,       # half the flat cost ...
    rotational_s=ERA_DISK.rotational_s,
    transfer_bytes_s=ERA_DISK.transfer_bytes_s,
    seek_distance_coef_s=4e-5,          # ... becomes distance-dependent
)


def diskched_cell(cfg: GangConfig) -> dict:
    """The makespan and the deepest disk queue of one run."""
    res = run_experiment(cfg)
    return {"makespan": res.makespan,
            "max_queue": res.collector.nodes[0].disk.max_queue_seen}


def run(scale: float = 1.0, seed: int = 1, quiet: bool = False,
        jobs: int = 1) -> dict:
    base = GangConfig("LU", "B", nprocs=1, seed=seed, scale=scale)
    grid = {
        disc: mode_configs(
            replace(base, disk=replace(ARM_DISK, discipline=disc)), POLICIES
        )
        for disc in DISCIPLINES
    }
    results = run_grids(grid, jobs=jobs, context="disk-discipline grid",
                        cell=diskched_cell)
    records = {}
    for disc, modes in grid.items():
        batch = results[modes["batch"]]["makespan"]
        row = {"batch_s": batch}
        for pol in POLICIES:
            r = results[modes[pol]]
            row[pol] = {
                "makespan_s": r["makespan"],
                "overhead": overhead_fraction(r["makespan"], batch),
                "max_queue": r["max_queue"],
            }
        records[disc] = row
    if not quiet:
        print(render(records))
    return records


def render(records: dict) -> str:
    rows = [
        (
            disc,
            f"{r['batch_s']:.0f}",
            f"{r['lru']['makespan_s']:.0f}",
            percent(r["lru"]["overhead"]),
            r["lru"]["max_queue"],
            f"{r['so/ao/ai/bg']['makespan_s']:.0f}",
            percent(r["so/ao/ai/bg"]["overhead"]),
        )
        for disc, r in records.items()
    ]
    return format_table(
        ("dispatch", "batch [s]", "lru [s]", "oh lru", "max queue",
         "adaptive [s]", "oh adaptive"),
        rows,
        title="Extension — disk dispatch discipline vs adaptive paging "
              "(LU.B serial, distance-aware arm)",
    )


if __name__ == "__main__":
    run()
