"""§3.4 ablation — how long should background writing run?

"With some experimentation we have found that background writing for
[the] last 10 % of the time quantum minimizes the repeated writing of
pages and improves the performance of co-scheduling further by about
10 %."  This sweep runs LU serial under ``so/ao/bg`` with the
background-writing window set to different fractions of the quantum and
reports completion time and the §3.4 cost metric — pages written more
than once because the job re-dirtied them.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.runner import GangConfig, run_experiment, run_grids
from repro.metrics.analysis import overhead_seconds
from repro.metrics.report import format_table, percent

FRACTIONS = (0.05, 0.1, 0.2, 0.35, 0.5)


def bg_cell(cfg: GangConfig) -> dict:
    """The makespan and the pages the §3.4 writer cleaned in one run."""
    res = run_experiment(cfg)
    writer = res.collector.nodes[0].adaptive.bgwriter
    return {
        "makespan": res.makespan,
        "bg_writes": writer.pages_written if writer is not None else 0,
    }


def run(scale: float = 1.0, seed: int = 1, quiet: bool = False,
        jobs: int = 1) -> dict:
    base = GangConfig("LU", "B", nprocs=1, seed=seed, scale=scale)
    configs = {"no-bg": replace(base, policy="so/ao")}
    for frac in FRACTIONS:
        configs[f"bg@{frac:.2f}"] = replace(base, policy="so/ao/bg",
                                            bg_fraction=frac)
    batch_cfg = replace(base, mode="batch")
    results = run_grids({"bg": {"batch": batch_cfg, **configs}},
                        jobs=jobs, context="bg-window ablation",
                        cell=bg_cell)
    records = {
        label: {"makespan_s": results[cfg]["makespan"],
                "bg_writes": results[cfg]["bg_writes"]}
        for label, cfg in configs.items()
    }
    batch = results[batch_cfg]["makespan"]
    if not quiet:
        print(render(records, batch, records["no-bg"]["makespan_s"]))
    records["_batch_s"] = batch
    return records


def render(records: dict, batch: float, no_bg: float) -> str:
    rows = []
    for label, r in records.items():
        if label.startswith("_"):
            continue
        mk = r["makespan_s"]
        gain = (no_bg - mk) / overhead_seconds(no_bg, batch) \
            if no_bg > batch else 0.0
        rows.append(
            (label, f"{mk:.0f}", r["bg_writes"], percent(max(-9.99, gain)))
        )
    return format_table(
        ("config", "makespan [s]", "bg pages written",
         "overhead cut vs so/ao"),
        rows,
        title="§3.4 ablation — background-write window (LU.B serial, "
              "so/ao base)",
    )


if __name__ == "__main__":
    run()
