"""Sensitivity analysis — how robust are the headline results?

The simulation substitutes calibrated constants for the paper's
hardware (DESIGN.md §2); this harness quantifies how the headline
LU-serial result (paging reduction of ``so/ao/ai/bg`` vs ``lru``)
responds to each of the main modelling choices:

* **memory pressure** — usable memory per node,
* **disk speed** — transfer rate and seek time (era vs modern),
* **quantum length**,
* **read-ahead window** of the baseline kernel.

A reproduction whose conclusion flips within these neighbourhoods
would not be trustworthy; the benchmark asserts the reduction stays
positive and substantial across the whole grid.
"""

from __future__ import annotations

from dataclasses import replace

from repro.disk.device import ERA_DISK, DiskParams
from repro.experiments.runner import GangConfig, mode_configs, run_cell
from repro.metrics.analysis import overhead_fraction, paging_reduction
from repro.metrics.report import format_table, percent
from repro.perf.pool import Cell, run_cells
from repro.perf.supervisor import require_ok

#: fast "modern" disk for the speed axis
FAST_DISK = DiskParams(seek_s=0.004, rotational_s=0.002,
                       transfer_bytes_s=60e6)

AXES = {
    "memory": [
        ("300 MB", {"memory_mb": 300.0}),
        ("350 MB (paper)", {"memory_mb": 350.0}),
        ("420 MB", {"memory_mb": 420.0}),
    ],
    "disk": [
        ("era 10 MB/s (default)", {"disk": ERA_DISK}),
        ("slow 6 MB/s", {"disk": replace(ERA_DISK, transfer_bytes_s=6e6)}),
        ("fast 60 MB/s", {"disk": FAST_DISK}),
    ],
    "quantum": [
        ("150 s", {"quantum_s": 150.0}),
        ("300 s (paper)", {"quantum_s": 300.0}),
        ("600 s", {"quantum_s": 600.0}),
    ],
}


def cell_grid(base: GangConfig, axes: dict) -> list[Cell]:
    """One cell per (axis, point, mode) — 3 modes per grid point."""
    return [
        Cell((axis, label, mode), run_cell, {"cfg": cfg})
        for axis, points in axes.items()
        for label, overrides in points
        for mode, cfg in mode_configs(replace(base, **overrides),
                                      ("lru", "so/ao/ai/bg")).items()
    ]


def run(scale: float = 1.0, seed: int = 1, quiet: bool = False,
        axes: dict | None = None, jobs: int = 1) -> dict:
    axes = axes if axes is not None else AXES
    base = GangConfig("LU", "B", nprocs=1, seed=seed, scale=scale)
    results = require_ok(run_cells(cell_grid(base, axes), jobs=jobs),
                         context="sensitivity sweep")
    records: dict[str, dict] = {}
    for axis, points in axes.items():
        records[axis] = {}
        for label, _overrides in points:
            batch = results[(axis, label, "batch")]["makespan"]
            lru = results[(axis, label, "lru")]["makespan"]
            full = results[(axis, label, "so/ao/ai/bg")]["makespan"]
            records[axis][label] = {
                "overhead_lru": overhead_fraction(lru, batch),
                "overhead_adaptive": overhead_fraction(full, batch),
                "reduction": paging_reduction(lru, full, batch),
            }
    if not quiet:
        print(render(records))
    return records


def render(records: dict) -> str:
    blocks = []
    for axis, points in records.items():
        rows = [
            (
                label,
                percent(r["overhead_lru"]),
                percent(r["overhead_adaptive"]),
                percent(r["reduction"]),
            )
            for label, r in points.items()
        ]
        blocks.append(
            format_table(
                (axis, "oh lru", "oh adaptive", "reduction"),
                rows,
                title=f"Sensitivity — {axis} axis (LU.B serial)",
            )
        )
    return "\n\n".join(blocks)


if __name__ == "__main__":
    run()
