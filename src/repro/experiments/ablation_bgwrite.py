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

from repro.core.policies import PagingPolicy
from repro.experiments.runner import GangConfig, run_experiment
from repro.metrics.analysis import overhead_seconds, paging_reduction
from repro.metrics.report import format_table, percent

FRACTIONS = (0.05, 0.1, 0.2, 0.35, 0.5)


def run(scale: float = 1.0, seed: int = 1, quiet: bool = False) -> dict:
    base = GangConfig("LU", "B", nprocs=1, seed=seed, scale=scale)
    batch = run_experiment(replace(base, mode="batch")).makespan
    no_bg = run_experiment(replace(base, policy="so/ao")).makespan
    records = {"no-bg": {"makespan_s": no_bg, "bg_writes": 0}}
    for frac in FRACTIONS:
        records[f"bg@{frac:.2f}"] = _run_with_fraction(base, frac)
    if not quiet:
        print(render(records, batch, no_bg))
    records["_batch_s"] = batch
    return records


def _run_with_fraction(base: GangConfig, frac: float) -> dict:
    """Run so/ao/bg with a custom bg_fraction via the node policy."""
    from repro.experiments import runner as _r

    # GangConfig carries only the policy string; build the run inline so
    # the PagingPolicy tunable can be set.
    from repro.cluster.node import Node
    from repro.gang.job import Job
    from repro.gang.scheduler import GangScheduler
    from repro.mem.params import MemoryParams
    from repro.sim.engine import Environment
    from repro.sim.rng import RngStreams

    env = Environment()
    rngs = RngStreams(base.seed)
    memory = MemoryParams.from_mb(base.memory_mb * base.scale)
    max_phase = min(
        8192, max(64, (memory.total_frames - memory.freepages_high) // 2)
    )
    policy = PagingPolicy.parse("so/ao/bg", bg_fraction=frac)
    node = Node(env, "node0", memory, policy, disk_params=base.disk)
    jobs = []
    for j in range(base.njobs):
        w = _r._scaled_workload(base, max_phase)
        jobs.append(Job(f"LU#{j}", [node], [w], rngs.spawn(f"job{j}")))
    GangScheduler(env, jobs, quantum_s=base.quantum_s * base.scale).start()
    env.run()
    bw = node.adaptive.bgwriter
    return {
        "makespan_s": max(j.completed_at for j in jobs),
        "bg_writes": bw.pages_written if bw is not None else 0,
    }


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
