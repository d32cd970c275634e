#!/usr/bin/env python
"""Explore any NPB workload under any policy combination.

A small CLI over the experiment runner: pick a benchmark, data class,
node count and a list of policy combinations, and get the paper-style
completion / overhead / reduction table.

Examples:
    python examples/policy_explorer.py --bench MG --klass B
    python examples/policy_explorer.py --bench LU --klass C --nodes 4 \
        --policies lru ai so so/ao so/ao/bg so/ao/ai/bg --scale 0.1
    python examples/policy_explorer.py --bench IS --klass C --nodes 2 \
        --memory-mb 300 --quantum-s 240
"""

import argparse

from repro.core import PAPER_POLICIES
from repro.experiments import GangConfig, mode_configs, run_grids
from repro.metrics import (
    format_table,
    overhead_fraction,
    paging_reduction,
)
from repro.metrics.report import percent
from repro.workloads import NPB_BENCHMARKS


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--bench", default="LU",
                        choices=sorted(NPB_BENCHMARKS))
    parser.add_argument("--klass", default="B", choices=["A", "B", "C"])
    parser.add_argument("--nodes", type=int, default=1)
    parser.add_argument("--policies", nargs="+",
                        default=list(PAPER_POLICIES))
    parser.add_argument("--memory-mb", type=float, default=350.0,
                        help="usable memory per node (paper: 350)")
    parser.add_argument("--quantum-s", type=float, default=300.0)
    parser.add_argument("--njobs", type=int, default=2)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    cfg = GangConfig(
        benchmark=args.bench,
        klass=args.klass,
        nprocs=args.nodes,
        memory_mb=args.memory_mb,
        quantum_s=args.quantum_s,
        njobs=args.njobs,
        seed=args.seed,
        scale=args.scale,
    )
    policies = [p for p in args.policies if p != "batch"]
    print(f"running {cfg.label()} with policies {policies} ...")
    modes = mode_configs(cfg, policies)
    grid = run_grids({"explore": modes})
    results = {name: grid[c] for name, c in modes.items()}

    batch = results["batch"]["makespan"]
    lru_mk = results.get("lru")
    lru_mk = lru_mk["makespan"] if lru_mk is not None else None

    rows = [("batch", f"{batch:.0f}", "-", "-", "-", "-")]
    for pol in policies:
        r = results[pol]
        reduction = (
            percent(paging_reduction(lru_mk, r["makespan"], batch))
            if lru_mk is not None and pol != "lru"
            else "-"
        )
        rows.append(
            (
                pol,
                f"{r['makespan']:.0f}",
                percent(overhead_fraction(r["makespan"], batch)),
                r["pages_read"],
                r["pages_written"],
                reduction,
            )
        )
    print()
    print(format_table(
        ("policy", "makespan [s]", "overhead", "pages in", "pages out",
         "reduction vs lru"),
        rows,
        title=f"{args.bench}.{args.klass} x{args.njobs} on "
              f"{args.nodes} node(s), {args.memory_mb:.0f} MB, "
              f"quantum {args.quantum_s:.0f} s (scale {args.scale})",
    ))


if __name__ == "__main__":
    main()
