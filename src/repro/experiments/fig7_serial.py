"""Figure 7 — serial NPB2 benchmarks on one node (§4.1).

Two instances of each class-B program (LU, SP, CG, IS, MG) are gang
scheduled on a single node with five-minute quanta.  The three panels:

(a) job completion time for ``lru`` (original), ``so/ao/ai/bg`` (all
    adaptive mechanisms) and ``batch`` (back-to-back, no switching);
(b) switching overhead as a fraction of completion time;
(c) paging reduction of the adaptive policy over the original.

Paper results for (c): MG 93 %, LU 84 %, SP 78 %, CG 68 %, IS 19 %.
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

BENCHMARKS = ("LU", "SP", "CG", "IS", "MG")
PAPER_REDUCTION = {"LU": 0.84, "SP": 0.78, "CG": 0.68, "IS": 0.19, "MG": 0.93}
POLICIES = ("lru", "so/ao/ai/bg")


def grid(scale: float = 1.0, seed: int = 1) -> dict:
    """The Figure 7 cell grid: benchmark -> {mode: config}."""
    return {
        bench: mode_configs(
            GangConfig(bench, "B", nprocs=1, seed=seed, scale=scale),
            POLICIES,
        )
        for bench in BENCHMARKS
    }


def reduce(cases: dict, results: dict) -> dict:
    """One record per benchmark from a :func:`run_grids` result."""
    return {
        bench: {**paging_record(makespans(modes, results)),
                "paper_reduction": PAPER_REDUCTION[bench]}
        for bench, modes in cases.items()
    }


def run(scale: float = 1.0, seed: int = 1, quiet: bool = False,
        jobs: int = 1) -> dict:
    """Run the Figure 7 experiment; returns one record per benchmark."""
    cases = grid(scale, seed)
    records = reduce(cases, run_grids(cases, jobs=jobs, context="fig7"))
    if not quiet:
        print(render(records))
    return records


def render(records: dict) -> str:
    rows_a = [
        (b, f"{r['lru_s']:.0f}", f"{r['adaptive_s']:.0f}", f"{r['batch_s']:.0f}")
        for b, r in records.items()
    ]
    rows_bc = [
        (
            b,
            percent(r["overhead_lru"]),
            percent(r["overhead_adaptive"]),
            percent(r["reduction"]),
            percent(r["paper_reduction"]),
        )
        for b, r in records.items()
    ]
    return "\n\n".join(
        [
            format_table(
                ("bench", "lru [s]", "so/ao/ai/bg [s]", "batch [s]"),
                rows_a,
                title="Fig 7(a) — serial completion time (class B, 2 instances)",
            ),
            format_table(
                ("bench", "overhead lru", "overhead adaptive",
                 "reduction", "paper"),
                rows_bc,
                title="Fig 7(b,c) — switching overhead and paging reduction",
            ),
        ]
    )


if __name__ == "__main__":
    run()
