"""§3.3 ablation — naive read-ahead boost vs adaptive page-in.

The paper argues that simply boosting the kernel's swap-in read-ahead
window (default 16 pages) is the obvious alternative to adaptive
page-in, but "since the extra pages brought in might not be used at
all, boosting the read-ahead size might actually degrade the
performance".  This sweep runs LU serial under plain LRU with windows
of 16/64/256 pages and compares against the recorded-page replay
(``ai``) with the default window.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.runner import GangConfig, run_grids
from repro.metrics.analysis import overhead_seconds
from repro.metrics.report import format_table

WINDOWS = (16, 64, 256)


def run(scale: float = 1.0, seed: int = 1, quiet: bool = False,
        jobs: int = 1) -> dict:
    base = GangConfig("LU", "B", nprocs=1, seed=seed, scale=scale)
    configs = {f"lru+ra{window}": replace(base, readahead_pages=window)
               for window in WINDOWS}
    configs["ai (ra16)"] = replace(base, policy="ai")
    batch_cfg = replace(base, mode="batch")
    results = run_grids({"readahead": {"batch": batch_cfg, **configs}},
                        jobs=jobs, context="read-ahead ablation")
    batch = results[batch_cfg]["makespan"]
    records = {"_batch_s": batch}
    for label, cfg in configs.items():
        r = results[cfg]
        records[label] = {
            "makespan_s": r["makespan"],
            "pages_read": r["pages_read"],
            "useless_prefetch_hint": r["vmm_stats"][0]["pages_swapped_in"],
        }
    if not quiet:
        print(render(records, batch))
    return records


def render(records: dict, batch: float) -> str:
    rows = []
    for label, r in records.items():
        if label.startswith("_"):
            continue
        rows.append(
            (
                label,
                f"{r['makespan_s']:.0f}",
                f"{overhead_seconds(r['makespan_s'], batch):.0f}",
                r["pages_read"],
            )
        )
    return format_table(
        ("config", "makespan [s]", "switch overhead [s]", "pages read"),
        rows,
        title="§3.3 ablation — read-ahead window vs adaptive page-in "
              "(LU.B serial)",
    )


if __name__ == "__main__":
    run()
