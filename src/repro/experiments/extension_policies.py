"""Extension — baseline replacement-policy comparison (§2 / ref. [17]).

The paper describes two baseline behaviours: its §3.1 narrative is an
age-ordered global LRU ("the lingering pages ... are older than B's
pages"), while §2's description of Linux 2.2 is a largest-process clock
sweep; the cited Jiang & Zhang study [17] compares such kernels'
thrashing behaviour.  This experiment runs the same overcommitted
two-job mix under both baselines, with and without the adaptive
mechanisms, showing that the adaptive stack helps regardless of which
baseline the kernel uses — and by how much each baseline thrashes.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.runner import (
    GangConfig,
    makespans,
    mode_configs,
    paging_record,
    run_grids,
)
from repro.mem.replacement import REPLACEMENT_POLICIES
from repro.metrics.report import format_table, percent

POLICIES = ("lru", "so/ao/ai/bg")


def run(scale: float = 1.0, seed: int = 1, quiet: bool = False,
        jobs: int = 1) -> dict:
    base = GangConfig("LU", "B", nprocs=1, seed=seed, scale=scale)
    grid = {name: mode_configs(replace(base, replacement=name), POLICIES)
            for name in REPLACEMENT_POLICIES}
    results = run_grids(grid, jobs=jobs, context="replacement-policy grid")
    records = {name: paging_record(makespans(modes, results))
               for name, modes in grid.items()}
    if not quiet:
        print(render(records))
    return records


def render(records: dict) -> str:
    rows = [
        (
            name,
            f"{r['batch_s']:.0f}",
            f"{r['lru_s']:.0f}",
            f"{r['adaptive_s']:.0f}",
            percent(r["overhead_lru"]),
            percent(r["overhead_adaptive"]),
            percent(r["reduction"]),
        )
        for name, r in records.items()
    ]
    return format_table(
        ("baseline", "batch [s]", "original [s]", "adaptive [s]",
         "oh original", "oh adaptive", "reduction"),
        rows,
        title="Extension — adaptive paging vs both baseline replacement "
              "policies (LU.B serial)",
    )


if __name__ == "__main__":
    run()
