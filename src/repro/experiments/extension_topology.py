"""Extension — does the interconnect topology change the story?

The paper's testbed is one 100 Mb/s switch; its future work (§6) moves
to 8- and 16-node clusters, where real machines split across racks and
cross-rack barriers get slower.  This experiment runs LU.C on 8 nodes
under a flat switch vs a two-rack topology (4 nodes per rack, 3.5×
uplink latency), for both paging policies.

Measured shape: the topologies tie.  The table shows why — per-rank
synchronisation time is tens of seconds of *waiting for paging
stragglers*, while the pure wire cost of every barrier crossing the
uplink adds only fractions of a second.  In a paging-bound gang
schedule the interconnect is not the bottleneck; fixing paging (the
paper's contribution) is worth orders of magnitude more than fixing
the network.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.network import NetworkParams
from repro.cluster.topology import TwoLevelTopology
from repro.experiments.runner import (
    GangConfig,
    mode_configs,
    run_experiment,
    run_grids,
)
from repro.metrics.analysis import overhead_fraction
from repro.metrics.report import format_table, percent

NNODES = 8
POLICIES = ("lru", "so/ao/ai/bg")

TOPOLOGIES = {
    "flat switch": NetworkParams(latency_s=100e-6),
    "2 racks (4+4)": TwoLevelTopology(
        NNODES, rack_size=4, intra_latency_s=100e-6,
        inter_latency_s=350e-6,
    ),
}


def topology_cell(cfg: GangConfig) -> dict:
    """The makespan, the mean per-rank barrier wait and the pure wire
    time of every barrier round in one run."""
    res = run_experiment(cfg)
    barriers = [j.barrier for j in res.collector.scheduler.jobs
                if j.barrier is not None]
    rounds = sum(b.rounds_completed for b in barriers)
    return {
        "makespan": res.makespan,
        "mean_rank_sync_s": sum(b.total_sync_s for b in barriers)
        / (cfg.nprocs * cfg.njobs),
        "wire_sync_s": rounds * cfg.network.barrier_s(cfg.nprocs),
    }


def run(scale: float = 1.0, seed: int = 1, quiet: bool = False,
        jobs: int = 1) -> dict:
    # a memory lock that stresses 8 nodes: LU.C per-node ~115 MB, so
    # use 200 MB usable to keep the pair overcommitted
    base = GangConfig("LU", "C", nprocs=NNODES, memory_mb=200.0,
                      seed=seed, scale=scale)
    grid = {label: mode_configs(replace(base, network=network), POLICIES)
            for label, network in TOPOLOGIES.items()}
    results = run_grids(grid, jobs=jobs, context="topology grid",
                        cell=topology_cell)
    records = {}
    for label, modes in grid.items():
        batch = results[modes["batch"]]["makespan"]
        row = {"batch_s": batch}
        for pol in POLICIES:
            r = results[modes[pol]]
            row[pol] = {
                "makespan_s": r["makespan"],
                "overhead": overhead_fraction(r["makespan"], batch),
                "mean_rank_sync_s": r["mean_rank_sync_s"],
                "wire_sync_s": r["wire_sync_s"],
            }
        records[label] = row
    if not quiet:
        print(render(records))
    return records


def render(records: dict) -> str:
    rows = [
        (
            label,
            f"{r['batch_s']:.0f}",
            percent(r["lru"]["overhead"]),
            f"{r['lru']['mean_rank_sync_s']:.0f}",
            f"{r['lru']['wire_sync_s']:.2f}",
            percent(r["so/ao/ai/bg"]["overhead"]),
            f"{r['so/ao/ai/bg']['mean_rank_sync_s']:.0f}",
        )
        for label, r in records.items()
    ]
    return format_table(
        ("topology", "batch [s]", "oh lru", "straggler sync [s]",
         "wire sync [s]", "oh adaptive", "sync adaptive [s]"),
        rows,
        title=f"Extension — interconnect topology, LU.C x2 on {NNODES} "
              "nodes (200 MB lock)",
    )


if __name__ == "__main__":
    run()
