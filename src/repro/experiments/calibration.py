"""Disk-parameter calibration grid.

Documents (and regenerates) the procedure behind ``ERA_DISK``
(docs/calibration.md): sweep seek time × transfer rate on the serial
LU.B headline and report LRU overhead and adaptive reduction per grid
point.  The chosen era disk is the point whose LRU overhead sits
nearest the paper's 26 % while keeping the parallel-band behaviour.
"""

from __future__ import annotations

from repro.disk.device import DiskParams
from repro.experiments.runner import (
    GangConfig,
    makespans,
    mode_configs,
    paging_record,
    run_grids,
)
from repro.metrics.report import format_table, percent

#: (seek seconds, transfer bytes/s) grid
GRID = (
    (0.008, 20e6),
    (0.012, 10e6),   # the chosen ERA_DISK point
    (0.015, 12e6),
    (0.012, 6e6),
)

#: the paper's serial-LU anchors
PAPER_OVERHEAD_LRU = 0.26
PAPER_REDUCTION = 0.84


def run(scale: float = 1.0, seed: int = 1, quiet: bool = False,
        grid=GRID, jobs: int = 1) -> dict:
    cases = {
        (seek, xfer): mode_configs(
            GangConfig("LU", "B", nprocs=1, seed=seed, scale=scale,
                       disk=DiskParams(seek_s=seek, rotational_s=0.004,
                                       transfer_bytes_s=xfer)),
            ("lru", "so/ao/ai/bg"),
        )
        for seek, xfer in grid
    }
    results = run_grids(cases, jobs=jobs, context="calibration grid")
    records = {}
    for point, modes in cases.items():
        rec = paging_record(makespans(modes, results))
        records[point] = {k: rec[k] for k in
                          ("overhead_lru", "overhead_adaptive", "reduction")}
    if not quiet:
        print(render(records))
    return records


def render(records: dict) -> str:
    rows = [
        (
            f"{seek * 1000:.0f} ms",
            f"{xfer / 1e6:.0f} MB/s",
            percent(r["overhead_lru"]),
            percent(r["overhead_adaptive"]),
            percent(r["reduction"]),
        )
        for (seek, xfer), r in records.items()
    ]
    table = format_table(
        ("seek", "transfer", "oh lru", "oh adaptive", "reduction"),
        rows,
        title="Disk calibration grid (LU.B serial)",
    )
    return (
        table
        + f"\npaper anchors: oh lru {PAPER_OVERHEAD_LRU:.0%}, "
          f"reduction {PAPER_REDUCTION:.0%}"
    )


if __name__ == "__main__":
    run()
