"""The node-level harnesses, run as cell tables, reproduce their
hand-built runs.

``ablation_bgwrite``, ``ablation_readahead``, ``extension_diskched``,
``extension_policies`` and ``extension_topology`` once assembled every
run by hand (``Environment`` + ``MemoryParams`` + ``Node`` + ``Job`` +
scheduler) to change one node-level value: the background-write
window, the read-ahead window, the disk discipline, the baseline
replacement policy or the interconnect.  ``ablation_false_eviction``
ran its policies through a serial :func:`run_experiment` loop.  The
reference builders below are those functions and the loops that called
them, kept as they were except for two spellings the code no longer
has: the disk discipline is a :class:`DiskParams` field instead of a
``Node`` argument, and the workload builder is a local copy of the
runner's.

Every harness now sets its value through a :class:`GangConfig` field
and runs its grid as one ``run_cells`` table.  Its record must be
byte-identical to the reference under ``json.dumps(sort_keys=True)`` at
``jobs=1`` and ``jobs=2``.  The reference is computed on the same host,
never pinned: the LRU tie order depends on the CPU's SIMD level
(DESIGN.md, "LRU tie-break at the cut-off").
"""

import json
from dataclasses import replace

import pytest

from repro.cluster.node import Node
from repro.core.policies import PagingPolicy
from repro.disk.device import ERA_DISK
from repro.experiments import (
    ablation_bgwrite,
    ablation_false_eviction,
    ablation_readahead,
    extension_diskched,
    extension_policies,
    extension_topology,
    runner,
)
from repro.experiments.report_io import _sanitise
from repro.experiments.runner import GangConfig, run_experiment
from repro.gang.job import Job
from repro.gang.scheduler import BatchScheduler, GangScheduler
from repro.mem.params import MemoryParams
from repro.mem.replacement import (
    GlobalLruPolicy,
    LargestProcessClockPolicy,
    PageAgingPolicy,
)
from repro.metrics.analysis import overhead_fraction, paging_reduction
from repro.perf.pool import run_cells
from repro.sim.engine import Environment
from repro.sim.rng import RngStreams
from repro.workloads.npb import make_npb

SCALE = 0.05
SEED = 1


def canon(record) -> str:
    return json.dumps(_sanitise(record), sort_keys=True)


def _scaled_workload(cfg, max_phase_pages):
    w = make_npb(cfg.benchmark, cfg.klass, cfg.nprocs,
                 max_phase_pages=max_phase_pages)
    if cfg.scale != 1.0:
        w.scale_in_place(cfg.scale)
    return w


# ---------------------------------------------------------------------------
# reference: ablation_bgwrite
# ---------------------------------------------------------------------------

def _run_with_fraction(base, frac):
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
        w = _scaled_workload(base, max_phase)
        jobs.append(Job(f"LU#{j}", [node], [w], rngs.spawn(f"job{j}")))
    GangScheduler(env, jobs, quantum_s=base.quantum_s * base.scale).start()
    env.run()
    bw = node.adaptive.bgwriter
    return {
        "makespan_s": max(j.completed_at for j in jobs),
        "bg_writes": bw.pages_written if bw is not None else 0,
    }


def ref_bgwrite(scale, seed):
    base = GangConfig("LU", "B", nprocs=1, seed=seed, scale=scale)
    batch = run_experiment(replace(base, mode="batch")).makespan
    no_bg = run_experiment(replace(base, policy="so/ao")).makespan
    records = {"no-bg": {"makespan_s": no_bg, "bg_writes": 0}}
    for frac in ablation_bgwrite.FRACTIONS:
        records[f"bg@{frac:.2f}"] = _run_with_fraction(base, frac)
    records["_batch_s"] = batch
    return records


# ---------------------------------------------------------------------------
# reference: ablation_readahead
# ---------------------------------------------------------------------------

def _run_with_window(base, window, policy):
    env = Environment()
    rngs = RngStreams(base.seed)
    memory = MemoryParams.from_mb(
        base.memory_mb * base.scale, readahead_pages=window
    )
    max_phase = min(
        8192, max(64, (memory.total_frames - memory.freepages_high) // 2)
    )
    node = Node(env, "node0", memory, policy, disk_params=base.disk)
    jobs = []
    for j in range(base.njobs):
        w = _scaled_workload(base, max_phase)
        jobs.append(Job(f"LU#{j}", [node], [w], rngs.spawn(f"job{j}")))
    GangScheduler(env, jobs, quantum_s=base.quantum_s * base.scale).start()
    env.run()
    return {
        "makespan_s": max(j.completed_at for j in jobs),
        "pages_read": node.disk.total_pages["read"],
        "useless_prefetch_hint": node.vmm.stats.pages_swapped_in,
    }


def ref_readahead(scale, seed):
    base = GangConfig("LU", "B", nprocs=1, seed=seed, scale=scale)
    batch = run_experiment(replace(base, mode="batch")).makespan
    records = {"_batch_s": batch}
    for window in ablation_readahead.WINDOWS:
        records[f"lru+ra{window}"] = _run_with_window(base, window, "lru")
    records["ai (ra16)"] = _run_with_window(base, 16, "ai")
    return records


# ---------------------------------------------------------------------------
# reference: extension_diskched
# ---------------------------------------------------------------------------

def _run_diskched(base, discipline, policy, mode):
    env = Environment()
    rngs = RngStreams(base.seed)
    memory = MemoryParams.from_mb(base.memory_mb * base.scale)
    max_phase = min(
        8192, max(64, (memory.total_frames - memory.freepages_high) // 2)
    )
    node = Node(
        env, "node0", memory, policy if mode == "gang" else "lru",
        disk_params=replace(extension_diskched.ARM_DISK,
                            discipline=discipline),
        refault_window_s=0.5 * base.quantum_s * base.scale,
    )
    jobs = []
    for j in range(base.njobs):
        w = _scaled_workload(base, max_phase)
        jobs.append(Job(f"{base.benchmark}#{j}", [node], [w],
                        rngs.spawn(f"job{j}")))
    if mode == "batch":
        BatchScheduler(env, jobs).start()
    else:
        GangScheduler(env, jobs,
                      quantum_s=base.quantum_s * base.scale).start()
    env.run()
    return max(j.completed_at for j in jobs), node.disk.max_queue_seen


def ref_diskched(scale, seed):
    base = GangConfig("LU", "B", nprocs=1, seed=seed, scale=scale)
    records = {}
    for disc in extension_diskched.DISCIPLINES:
        batch, _ = _run_diskched(base, disc, "lru", "batch")
        row = {"batch_s": batch}
        for pol in extension_diskched.POLICIES:
            mk, depth = _run_diskched(base, disc, pol, "gang")
            row[pol] = {
                "makespan_s": mk,
                "overhead": overhead_fraction(mk, batch),
                "max_queue": depth,
            }
        records[disc] = row
    return records


# ---------------------------------------------------------------------------
# reference: extension_policies
# ---------------------------------------------------------------------------

BASELINES = {
    "global-lru": GlobalLruPolicy,
    "largest-clock": LargestProcessClockPolicy,
    "page-aging": PageAgingPolicy,
}


def _run_policies(base, baseline_cls, policy, mode):
    env = Environment()
    rngs = RngStreams(base.seed)
    memory = MemoryParams.from_mb(base.memory_mb * base.scale)
    max_phase = min(
        8192, max(64, (memory.total_frames - memory.freepages_high) // 2)
    )
    node = Node(
        env, "node0", memory, policy if mode == "gang" else "lru",
        disk_params=ERA_DISK, replacement=baseline_cls(),
        refault_window_s=0.5 * base.quantum_s * base.scale,
    )
    jobs = []
    for j in range(base.njobs):
        w = _scaled_workload(base, max_phase)
        jobs.append(Job(f"{base.benchmark}#{j}", [node], [w],
                        rngs.spawn(f"job{j}")))
    if mode == "batch":
        BatchScheduler(env, jobs).start()
    else:
        GangScheduler(env, jobs,
                      quantum_s=base.quantum_s * base.scale).start()
    env.run()
    return max(j.completed_at for j in jobs)


def ref_policies(scale, seed):
    base = GangConfig("LU", "B", nprocs=1, seed=seed, scale=scale)
    records = {}
    for name, cls in BASELINES.items():
        batch = _run_policies(base, cls, "lru", "batch")
        lru = _run_policies(base, cls, "lru", "gang")
        full = _run_policies(base, cls, "so/ao/ai/bg", "gang")
        records[name] = {
            "batch_s": batch,
            "lru_s": lru,
            "adaptive_s": full,
            "overhead_lru": overhead_fraction(lru, batch),
            "overhead_adaptive": overhead_fraction(full, batch),
            "reduction": paging_reduction(lru, full, batch),
        }
    return records


# ---------------------------------------------------------------------------
# reference: extension_topology
# ---------------------------------------------------------------------------

def _run_topology(base, network, policy, mode):
    nnodes = extension_topology.NNODES
    env = Environment()
    rngs = RngStreams(base.seed)
    memory = MemoryParams.from_mb(base.memory_mb * base.scale)
    max_phase = min(
        8192, max(64, (memory.total_frames - memory.freepages_high) // 2)
    )
    nodes = [
        Node(env, f"node{i}", memory,
             policy if mode == "gang" else "lru",
             disk_params=ERA_DISK,
             refault_window_s=0.5 * base.quantum_s * base.scale)
        for i in range(nnodes)
    ]
    jobs = []
    for j in range(base.njobs):
        wls = [_scaled_workload(base, max_phase) for _ in nodes]
        jobs.append(Job(f"{base.benchmark}#{j}", nodes, wls,
                        rngs.spawn(f"job{j}"), network=network))
    if mode == "batch":
        BatchScheduler(env, jobs).start()
    else:
        GangScheduler(env, jobs,
                      quantum_s=base.quantum_s * base.scale).start()
    env.run()
    sync = sum(
        j.barrier.total_sync_s for j in jobs if j.barrier is not None
    ) / (nnodes * base.njobs)
    rounds = sum(
        j.barrier.rounds_completed for j in jobs if j.barrier is not None
    )
    wire = rounds * network.barrier_s(nnodes)
    return max(j.completed_at for j in jobs), sync, wire


def ref_topology(scale, seed):
    base = GangConfig("LU", "C", nprocs=extension_topology.NNODES,
                      memory_mb=200.0, seed=seed, scale=scale)
    records = {}
    for label, network in extension_topology.TOPOLOGIES.items():
        batch, _, _ = _run_topology(base, network, "lru", "batch")
        row = {"batch_s": batch}
        for pol in extension_topology.POLICIES:
            mk, sync, wire = _run_topology(base, network, pol, "gang")
            row[pol] = {
                "makespan_s": mk,
                "overhead": overhead_fraction(mk, batch),
                "mean_rank_sync_s": sync,
                "wire_sync_s": wire,
            }
        records[label] = row
    return records


# ---------------------------------------------------------------------------
# reference: ablation_false_eviction
# ---------------------------------------------------------------------------

def ref_false_eviction(scale, seed):
    base = GangConfig("LU", "B", nprocs=1, seed=seed, scale=scale)
    records = {}
    for pol in ablation_false_eviction.POLICIES:
        res = run_experiment(replace(base, policy=pol))
        stats = res.vmm_stats[0]
        records[pol] = {
            "makespan_s": res.makespan,
            "refaults": stats["refaults"],
            "evictions": stats["evictions"],
            "pages_swapped_in": stats["pages_swapped_in"],
        }
    return records


HARNESSES = {
    "bgwrite": (ablation_bgwrite, ref_bgwrite),
    "readahead": (ablation_readahead, ref_readahead),
    "diskched": (extension_diskched, ref_diskched),
    "policies": (extension_policies, ref_policies),
    "topology": (extension_topology, ref_topology),
    "false_eviction": (ablation_false_eviction, ref_false_eviction),
}


@pytest.fixture(scope="module")
def reference():
    return {name: ref(SCALE, SEED) for name, (_, ref) in HARNESSES.items()}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", list(HARNESSES))
def test_harness_record_equals_the_hand_built_runs(reference, name, jobs):
    mod, _ = HARNESSES[name]
    got = mod.run(scale=SCALE, seed=SEED, quiet=True, jobs=jobs)
    want = reference[name]
    assert list(got) == list(want)
    assert canon(got) == canon(want)


def test_every_cell_is_labelled_by_the_value_it_studies(monkeypatch):
    """The six harnesses run every cell through ``run_grids``; each
    distinct config of their grids has its own label, and the label
    shows the field the harness studies."""
    seen = []

    def spy(cells, jobs=1):
        cells = list(cells)
        seen.extend(cell.kwargs["cfg"] for cell in cells)
        return run_cells(cells, jobs=jobs)

    monkeypatch.setattr(runner, "run_cells", spy)
    for name, (mod, _) in HARNESSES.items():
        before = len(seen)
        mod.run(scale=SCALE, seed=SEED, quiet=True)
        assert len(seen) > before, name
    configs = set(seen)
    labels = {cfg.cell_label() for cfg in configs}
    assert len(labels) == len(configs)
    joined = "\n".join(sorted(labels))
    for shown in ("disk.discipline='sstf'", "readahead_pages=64",
                  "replacement='page-aging'", "bg_fraction=0.05",
                  "network=TwoLevelTopology("):
        assert shown in joined
