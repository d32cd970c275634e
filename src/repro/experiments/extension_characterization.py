"""Extension — which workload properties predict the adaptive win?

§4.1 explains each benchmark's reduction informally ("MG has the
biggest footprint", "IS has a relatively small memory requirement").
This experiment makes the link quantitative: profile every NPB class-B
program (footprint, dirty ratio, phase-reuse distance — see
``repro.workloads.analysis``), measure its reduction under
``so/ao/ai/bg``, and print them side by side, with the rank correlation
between memory *overcommit* and measured reduction.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.runner import (
    GangConfig,
    makespans,
    mode_configs,
    paging_record,
    run_grids,
)
from repro.metrics.report import format_table, percent
from repro.mem.params import mb_to_pages, pages_to_mb
from repro.workloads.analysis import profile_workload
from repro.workloads.npb import make_npb

BENCHMARKS = ("LU", "SP", "CG", "IS", "MG")
MEMORY_MB = 350.0


def _rank_correlation(xs, ys) -> float:
    """Spearman rank correlation (no scipy dependency needed)."""
    rx = np.argsort(np.argsort(xs)).astype(float)
    ry = np.argsort(np.argsort(ys)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = float(np.sqrt((rx ** 2).sum() * (ry ** 2).sum()))
    return float((rx * ry).sum() / denom) if denom else 0.0


def run(scale: float = 1.0, seed: int = 1, quiet: bool = False,
        jobs: int = 1) -> dict:
    cases = {
        bench: mode_configs(
            GangConfig(bench, "B", nprocs=1, memory_mb=MEMORY_MB,
                       seed=seed, scale=scale),
            ("lru", "so/ao/ai/bg"),
        )
        for bench in BENCHMARKS
    }
    results = run_grids(cases, jobs=jobs, context="characterization")
    records = {}
    for bench, modes in cases.items():
        w = make_npb(bench, "B")
        profile = profile_workload(
            make_npb(bench, "B", max_phase_pages=8192),
            np.random.default_rng(seed),
        )
        rec = paging_record(makespans(modes, results))
        footprint_mb = pages_to_mb(w.footprint_pages)
        records[bench] = {
            "footprint_mb": footprint_mb,
            "overcommit": 2 * footprint_mb / MEMORY_MB,
            "dirty_ratio": profile.dirty_ratio,
            "mean_reuse_distance": profile.mean_reuse_distance,
            "overhead_lru": rec["overhead_lru"],
            "reduction": rec["reduction"],
        }
    over = [records[b]["overcommit"] for b in BENCHMARKS]
    red = [records[b]["reduction"] for b in BENCHMARKS]
    oh = [records[b]["overhead_lru"] for b in BENCHMARKS]
    records["_correlations"] = {
        "overcommit_vs_overhead": _rank_correlation(over, oh),
        "overcommit_vs_reduction": _rank_correlation(over, red),
    }
    if not quiet:
        print(render(records))
    return records


def render(records: dict) -> str:
    rows = [
        (
            bench,
            f"{r['footprint_mb']:.0f}",
            f"{r['overcommit']:.2f}",
            f"{r['dirty_ratio']:.2f}",
            f"{r['mean_reuse_distance']:.0f}",
            percent(r["overhead_lru"]),
            percent(r["reduction"]),
        )
        for bench, r in records.items()
        if not bench.startswith("_")
    ]
    table = format_table(
        ("bench", "footprint [MB]", "overcommit", "dirty", "reuse dist",
         "oh lru", "reduction"),
        rows,
        title="Extension — workload properties vs measured adaptive win "
              "(class B serial)",
    )
    c = records["_correlations"]
    return (
        table
        + "\nSpearman rank correlations: overcommit↔overhead "
          f"{c['overcommit_vs_overhead']:+.2f}, overcommit↔reduction "
          f"{c['overcommit_vs_reduction']:+.2f}"
    )


if __name__ == "__main__":
    run()
