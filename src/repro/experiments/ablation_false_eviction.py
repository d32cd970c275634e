"""§3.1 ablation — false eviction under LRU vs selective page-out.

The paper's §3.1 narrative: a rescheduled job's residual pages are the
oldest in memory, so plain LRU evicts exactly the pages about to be
reused and has to read them straight back.  The *refault* counter (a
page swapped in shortly after its eviction) makes the effect directly
measurable: selective page-out should cut refaults dramatically because
only the outgoing job's pages get evicted.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.runner import GangConfig, run_grids
from repro.metrics.report import format_table, percent

POLICIES = ("lru", "so", "so/ao/ai/bg")


def run(scale: float = 1.0, seed: int = 1, quiet: bool = False,
        jobs: int = 1) -> dict:
    base = GangConfig("LU", "B", nprocs=1, seed=seed, scale=scale)
    configs = {pol: replace(base, policy=pol) for pol in POLICIES}
    results = run_grids({"false-eviction": configs}, jobs=jobs,
                        context="false-eviction ablation")
    records = {}
    for pol, cfg in configs.items():
        stats = results[cfg]["vmm_stats"][0]
        records[pol] = {
            "makespan_s": results[cfg]["makespan"],
            "refaults": stats["refaults"],
            "evictions": stats["evictions"],
            "pages_swapped_in": stats["pages_swapped_in"],
        }
    if not quiet:
        print(render(records))
    return records


def render(records: dict) -> str:
    base_refaults = records["lru"]["refaults"]
    rows = []
    for pol, r in records.items():
        cut = 1.0 - r["refaults"] / base_refaults if base_refaults else 0.0
        rows.append(
            (
                pol,
                r["refaults"],
                r["evictions"],
                r["pages_swapped_in"],
                percent(cut) if pol != "lru" else "-",
            )
        )
    return format_table(
        ("policy", "refaults", "evictions", "pages swapped in",
         "refaults cut"),
        rows,
        title="§3.1 ablation — false eviction (LU.B serial, 2 instances)",
    )


if __name__ == "__main__":
    run()
