#!/usr/bin/env python
"""A four-node cluster time-sharing two parallel NPB LU jobs.

Reproduces the paper's headline setup (§4): two instances of LU class C
on four nodes with 350 MB of usable memory each, five-minute quanta,
barrier-coupled MPI ranks.  Compares the unmodified LRU paging policy
against all four adaptive mechanisms, and shows per-node paging
statistics and the coordinated switches.

Run:  python examples/npb_cluster.py [--scale 0.1]
(default scale 0.1 finishes in a few seconds; scale 1.0 is the paper's
full size and takes a minute or two)
"""

import argparse

from repro.experiments import (
    GangConfig,
    mode_configs,
    run_experiment,
    run_grids,
)
from repro.metrics import (
    format_table,
    overhead_fraction,
    paging_reduction,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.1,
                        help="proportional shrink factor (1.0 = paper size)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    base = GangConfig("LU", "C", nprocs=4, seed=args.seed, scale=args.scale)
    print(f"running {base.benchmark}.{base.klass} x2 on {base.nprocs} nodes "
          f"(scale {args.scale}) ...")
    modes = mode_configs(base, ["lru", "so/ao/ai/bg"])
    grid = run_grids({"LU": modes})
    results = {name: grid[cfg] for name, cfg in modes.items()}

    rows = []
    for name, r in results.items():
        rows.append(
            (
                name,
                f"{r['makespan']:.0f}",
                r["switch_count"],
                r["pages_read"],
                r["pages_written"],
            )
        )
    print()
    print(format_table(
        ("mode/policy", "makespan [s]", "switches", "pages in", "pages out"),
        rows,
        title="LU.C x 2 jobs on 4 nodes",
    ))

    batch = results["batch"]["makespan"]
    lru = results["lru"]["makespan"]
    full = results["so/ao/ai/bg"]["makespan"]
    print()
    print(f"overhead lru      : {overhead_fraction(lru, batch):.0%}")
    print(f"overhead adaptive : {overhead_fraction(full, batch):.0%}")
    print(f"paging reduction  : {paging_reduction(lru, full, batch):.0%}")

    # per-node breakdown of the adaptive run
    print()
    node_rows = []
    for i, stats in enumerate(results["so/ao/ai/bg"]["vmm_stats"]):
        node_rows.append(
            (
                f"node{i}",
                stats["major_faults"],
                stats["pages_swapped_in"],
                stats["pages_swapped_out"],
                stats["pages_discarded"],
                stats["refaults"],
            )
        )
    print(format_table(
        ("node", "major faults", "pages in", "pages out", "clean drops",
         "refaults"),
        node_rows,
        title="Adaptive run — per-node paging",
    ))

    # the coordinated switches (gang semantics: all nodes at once); the
    # switch log lives on the run's collector, which a grid cell does
    # not ship back, so replay the (deterministic) adaptive run here
    adaptive = run_experiment(modes["so/ao/ai/bg"])
    print()
    switch_rows = [
        (f"{s.started_at:.0f}", f"{s.paging_done_at - s.started_at:.1f}",
         s.in_job, s.out_job or "-")
        for s in adaptive.collector.switches[:12]
    ]
    print(format_table(
        ("t [s]", "switch paging [s]", "in", "out"),
        switch_rows,
        title="First coordinated switches (adaptive run)",
    ))


if __name__ == "__main__":
    main()
