"""Figure 8 — gang-scheduled parallel NPB2 benchmarks (§4.2).

Two instances of each parallel (MPI) program run on two and on four
nodes.  SP appears only at four nodes (it does not compile for two) and
uses a seven-minute quantum there to avoid continuous thrashing; MG
appears only at two nodes (its per-node footprint at four no longer
stresses the 350 MB memory).

Paper reductions: 2 nodes — LU 61 %, IS 72 %, CG 38 %;
4 nodes — LU 43 %, IS 57 %, SP 70 %, CG 7 %.
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

#: (benchmark, nodes, quantum seconds)
CASES = (
    ("LU", 2, 300.0),
    ("CG", 2, 300.0),
    ("IS", 2, 300.0),
    ("MG", 2, 300.0),
    ("LU", 4, 300.0),
    ("SP", 4, 420.0),  # §4.2: SP needs a longer quantum on 4 machines
    ("CG", 4, 300.0),
    ("IS", 4, 300.0),
)

PAPER_REDUCTION = {
    ("LU", 2): 0.61, ("IS", 2): 0.72, ("CG", 2): 0.38, ("MG", 2): None,
    ("LU", 4): 0.43, ("IS", 4): 0.57, ("SP", 4): 0.70, ("CG", 4): 0.07,
}

POLICIES = ("lru", "so/ao/ai/bg")


def grid(scale: float = 1.0, seed: int = 1) -> dict:
    """The Figure 8 cell grid: (benchmark, nodes) -> {mode: config}."""
    return {
        (bench, nprocs): mode_configs(
            GangConfig(bench, "C", nprocs=nprocs, quantum_s=quantum,
                       seed=seed, scale=scale),
            POLICIES,
        )
        for bench, nprocs, quantum in CASES
    }


def reduce(cases: dict, results: dict) -> dict:
    """One record per (benchmark, nodes) case from a :func:`run_grids`
    result."""
    return {
        case: {**paging_record(makespans(modes, results)),
               "paper_reduction": PAPER_REDUCTION.get(case)}
        for case, modes in cases.items()
    }


def run(scale: float = 1.0, seed: int = 1, quiet: bool = False,
        jobs: int = 1) -> dict:
    """Run Figure 8; returns one record per (benchmark, nodes) case."""
    cases = grid(scale, seed)
    records = reduce(cases, run_grids(cases, jobs=jobs, context="fig8"))
    if not quiet:
        print(render(records))
    return records


def render(records: dict) -> str:
    blocks = []
    for nprocs, panel in ((2, "a-c"), (4, "d-f")):
        rows = []
        for (bench, n), r in records.items():
            if n != nprocs:
                continue
            paper = r["paper_reduction"]
            rows.append(
                (
                    bench,
                    f"{r['lru_s']:.0f}",
                    f"{r['adaptive_s']:.0f}",
                    f"{r['batch_s']:.0f}",
                    percent(r["overhead_lru"]),
                    percent(r["overhead_adaptive"]),
                    percent(r["reduction"]),
                    percent(paper) if paper is not None else "-",
                )
            )
        blocks.append(
            format_table(
                ("bench", "lru [s]", "adaptive [s]", "batch [s]",
                 "oh lru", "oh adaptive", "reduction", "paper"),
                rows,
                title=f"Fig 8({panel}) — {nprocs} machines, class C, "
                      "2 instances",
            )
        )
    return "\n\n".join(blocks)


if __name__ == "__main__":
    run()
