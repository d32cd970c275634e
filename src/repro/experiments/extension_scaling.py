"""Extension — the paper's future work: 8- and 16-node clusters (§6).

"We are currently conducting experiments with a larger cluster ... We
are extending our performance study to parallel applications running on
8 and 16 nodes."  This experiment runs LU class C on 2/4/8/16 nodes
under ``lru`` and ``so/ao/ai/bg`` and reports how the switching
overhead and the adaptive reduction evolve as the per-node footprint
shrinks and synchronisation costs grow.
"""

from __future__ import annotations

from repro.experiments.runner import (
    GangConfig,
    makespans,
    mode_configs,
    paging_record,
    run_grids,
)
from repro.metrics.report import format_table, percent

NODE_COUNTS = (2, 4, 8, 16)
POLICIES = ("lru", "so/ao/ai/bg")


def run(scale: float = 1.0, seed: int = 1, quiet: bool = False,
        node_counts=NODE_COUNTS, jobs: int = 1) -> dict:
    cases = {
        n: mode_configs(GangConfig("LU", "C", nprocs=n, seed=seed,
                                   scale=scale), POLICIES)
        for n in node_counts
    }
    results = run_grids(cases, jobs=jobs, context="scaling sweep")
    records = {n: paging_record(makespans(modes, results))
               for n, modes in cases.items()}
    if not quiet:
        print(render(records))
    return records


def render(records: dict) -> str:
    rows = [
        (
            f"{n} nodes",
            f"{r['batch_s']:.0f}",
            f"{r['lru_s']:.0f}",
            f"{r['adaptive_s']:.0f}",
            percent(r["overhead_lru"]),
            percent(r["overhead_adaptive"]),
            percent(r["reduction"]),
        )
        for n, r in records.items()
    ]
    return format_table(
        ("cluster", "batch [s]", "lru [s]", "adaptive [s]",
         "oh lru", "oh adaptive", "reduction"),
        rows,
        title="Extension (§6 future work) — LU.C x 2 jobs on growing "
              "clusters",
    )


if __name__ == "__main__":
    run()
