"""The zero-perturbation guarantee: scalar oracle vs the fast path.

Two execution modes exist (DESIGN.md "Execution cores"): the scalar
oracle (``set_fast_path_enabled(False)``: every event dispatched through
the heap, the historical per-chunk event structure) and the fast path
(resident-run batching, fused fault CPU charges, and batch-advance —
runs of same-type non-interacting events applied under a local
clock).  Every simulation *output* must be
bit-for-bit identical between the two, for every paper policy, at two
workload scales.

The fast path deletes some bookkeeping events outright, so the oracle's
event count is not a reference for it.  Batch-advance only *absorbs*
dispatches: each absorbed event is counted in ``events_absorbed``, so
the logical count ``events_simulated`` is exact bookkeeping while
``events_dispatched`` drops.  Both counts are pinned per cell; a lost
absorption or a miscounted one moves a pin.

The fault-injection run checks the interaction-boundary rule: a disk
fault plan makes every request a potential injection point, so the
closed-system proof fails, batches split down to scalar dispatch, and
the fault responses (retries, spikes, fallbacks) land identically.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.policies import PAPER_POLICIES
from repro.experiments.runner import GangConfig, run_experiment
from repro.faults import FaultRates
from repro.gang.job import Job
from repro.mem.vmm import VirtualMemoryManager
from repro.sim import set_fast_path_enabled
from repro.workloads.npb import NPB_BENCHMARKS

SCALES = (0.05, 0.1)

#: policies whose demand fills satisfy the closed-system entry proof.
#: The ``ai`` mechanism (adaptive page-in of recorded flush lists,
#: §3.3) issues its own block swap-ins around every switch, so demand
#: fills under ``ai`` overlap other in-flight work and the gate
#: correctly keeps them scalar — identity still holds, absorption does
#: not happen.
ABSORBING_POLICIES = frozenset(("lru", "so", "so/ao", "so/ao/bg"))

#: fast-path (events_simulated, events_dispatched) of LU.C@2, seed 1,
#: per (policy, scale).  Recorded when a separate dispatch-only mode
#: still existed: events_simulated equalled that mode's count exactly.
PINNED_COUNTS = {
    ("lru", 0.05): (53951, 1975),
    ("ai", 0.05): (10266, 10266),
    ("so", 0.05): (24068, 1524),
    ("so/ao", 0.05): (15090, 2330),
    ("so/ao/bg", 0.05): (18472, 5708),
    ("so/ao/ai/bg", 0.05): (6532, 6532),
    ("lru", 0.1): (71919, 2489),
    ("ai", 0.1): (17136, 17136),
    ("so", 0.1): (40930, 2282),
    ("so/ao", 0.1): (28326, 3956),
    ("so/ao/bg", 0.1): (30818, 9610),
    ("so/ao/ai/bg", 0.1): (10402, 10402),
}

#: further seed-1, scale-0.05 cells whose fills come from monotone
#: read-ahead plans (LU.C@2 ``so`` is in the grid above):
#: (benchmark, class, nprocs, policy) -> (events_simulated,
#: events_dispatched)
PINNED_MONOTONE_CELLS = {
    ("LU", "C", 4, "bg"): (10912, 4568),
    ("FT", "B", 2, "bg"): (3554, 2450),
}

#: a seed-1, scale-0.05 cell on fragmented swap: some read-ahead
#: windows span gaps in the slot map, so its eager read runs include
#: non-contiguous groups and single-group runs —
#: (events_simulated, events_dispatched)
FRAGMENTED_CELL = ("LU", "B", 1, "lru")
PINNED_FRAGMENTED = (1338, 128)

#: benchmarks the randomized sweep draws from
RANDOM_BENCHMARKS = ("LU", "CG", "MG", "FT", "IS")


@pytest.fixture(autouse=True)
def _restore_fast_path():
    set_fast_path_enabled(True)
    yield
    set_fast_path_enabled(True)


def _signature(result):
    """Everything deterministic a run produces, minus the event counts."""
    return (
        result.makespan,
        result.completions,
        result.pages_read,
        result.pages_written,
        result.switch_count,
        result.vmm_stats,
        result.evicted,
        result.fault_summary,
        [
            (e.node, e.op, e.pages, e.start, e.end, e.pid)
            for e in result.collector.paging
        ],
    )


def _run(cfg, fast):
    """One run of ``cfg`` on the fast path or the scalar oracle."""
    set_fast_path_enabled(fast)
    Job._next_jid = 1
    try:
        return run_experiment(cfg)
    finally:
        set_fast_path_enabled(True)


def _run_both(cfg):
    """(fast, oracle) runs of ``cfg``, asserted output-identical."""
    fast = _run(cfg, True)
    oracle = _run(cfg, False)
    assert _signature(fast) == _signature(oracle), cfg.label()
    return fast, oracle


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("policy", PAPER_POLICIES)
def test_tiers_identical(policy, scale):
    cfg = GangConfig("LU", "C", nprocs=2, policy=policy, seed=1, scale=scale)
    fast, oracle = _run_both(cfg)
    # the fast path exists to remove events; equality would mean it
    # never engaged on a paging-heavy cell
    assert fast.events_dispatched < oracle.events_dispatched
    assert (fast.events_simulated,
            fast.events_dispatched) == PINNED_COUNTS[policy, scale]
    # batch-advance absorbs dispatches only where the closed-system
    # entry proof can hold at all
    if policy in ABSORBING_POLICIES:
        assert fast.events_dispatched < fast.events_simulated
    else:
        assert fast.events_dispatched == fast.events_simulated


@pytest.mark.parametrize("cell", sorted(PINNED_MONOTONE_CELLS),
                         ids=lambda c: "{}.{}@{}-{}".format(*c))
def test_monotone_plan_cells_pinned(cell):
    bench, klass, nprocs, policy = cell
    cfg = GangConfig(bench, klass, nprocs=nprocs, policy=policy,
                     seed=1, scale=0.05)
    fast, _ = _run_both(cfg)
    assert (fast.events_simulated,
            fast.events_dispatched) == PINNED_MONOTONE_CELLS[cell]


def test_fragmented_read_runs_identical(monkeypatch):
    shapes = []
    commit = VirtualMemoryManager._eager_read_run

    def spy(self, table, pid, plan, start, t, deadline):
        out = commit(self, table, pid, plan, start, t, deadline)
        run = plan.contig[start:start + out[0]]
        if run.size:
            shapes.append((run.size, bool(run.all())))
        return out

    monkeypatch.setattr(VirtualMemoryManager, "_eager_read_run", spy)
    bench, klass, nprocs, policy = FRAGMENTED_CELL
    cfg = GangConfig(bench, klass, nprocs=nprocs, policy=policy,
                     seed=1, scale=0.05)
    fast, _ = _run_both(cfg)
    assert any(n == 1 for n, _ in shapes)
    assert any(not contig for _, contig in shapes)
    assert (fast.events_simulated,
            fast.events_dispatched) == PINNED_FRAGMENTED


@pytest.mark.parametrize("policy", ("so/ao/bg", "so/ao/ai/bg"))
def test_faults_split_batches_at_injection_points(policy):
    """A fault plan turns every disk request into a potential injection
    point, so the closed-system entry proof must fail and the run must
    degrade to scalar dispatch — same outputs, same fault responses,
    and *zero* absorbed events (every batch boundary splits)."""
    cfg = GangConfig(
        "LU", "C", nprocs=2, policy=policy, seed=3, scale=0.05,
        faults=FaultRates(
            disk_error_rate=0.02, disk_latency_rate=0.05,
            straggler_rate=0.1, record_loss_rate=0.1,
        ),
    )
    fast, oracle = _run_both(cfg)
    assert fast.fault_summary == oracle.fault_summary
    # no absorption: with injection points live, batch-advance may
    # never replay events under a local clock
    assert fast.events_dispatched == fast.events_simulated


def test_fault_free_run_absorbs_events():
    """Control for the chaos test: the same cell without a fault plan
    must absorb events (the gate opens once injection points vanish)."""
    cfg = GangConfig(
        "LU", "C", nprocs=2, policy="so/ao/bg", seed=3, scale=0.05,
    )
    fast, _ = _run_both(cfg)
    assert fast.events_dispatched < fast.events_simulated


def test_fast_and_slow_identical_randomized():
    """Property sweep: every benchmark once, with a random node count,
    policy and seed at the default quantum; both modes agree."""
    rng = np.random.default_rng(1234)
    for bench in RANDOM_BENCHMARKS:
        # node counts at which one rank fits in a node's memory (a rank
        # larger than the node thrashes on its own and runs past the
        # event watchdog)
        spec = NPB_BENCHMARKS[bench]
        nprocs = [n for n in spec.valid_nprocs if n <= 4
                  and spec.footprint_mb("C", n) < GangConfig.memory_mb]
        cfg = GangConfig(
            bench, "C",
            nprocs=nprocs[rng.integers(len(nprocs))],
            policy=PAPER_POLICIES[rng.integers(len(PAPER_POLICIES))],
            seed=int(rng.integers(0, 100)),
            scale=0.05,
            max_events=2_000_000,
        )
        _run_both(cfg)


def test_disabling_fast_path_restores_event_stream():
    """The oracle must reproduce the historical per-chunk event
    structure: two oracle runs of the same config agree event-for-event
    in count."""
    cfg = GangConfig("LU", "C", nprocs=2, policy="lru", seed=1, scale=0.05)
    first = _run(cfg, False)
    second = _run(cfg, False)
    assert first.events_processed == second.events_processed
    assert _signature(first) == _signature(second)


def _perfbench_cases():
    """``perfbench/cases.py``, loaded by path (perfbench is not a package)."""
    path = Path(__file__).resolve().parents[2] / "perfbench" / "cases.py"
    spec = importlib.util.spec_from_file_location("perfbench_cases", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_reproduces_the_pinned_operating_point():
    """The scalar oracle at the paper's operating point — perfbench's
    ``npb_full_adaptive`` cell, LU.C on four nodes under ``so/ao/ai/bg``
    at full scale — against the fast path's pinned fingerprint.  The
    identity tests above stop at scale 0.1.  ``events_simulated`` is left
    out: the oracle also dispatches the events the fast path deletes."""
    cases = _perfbench_cases()
    cfg = cases.CELL_CONFIGS["npb_full_adaptive"]
    pinned = json.loads(
        (Path(cases.__file__).parent / "pinned.json").read_text()
    )["npb_full_adaptive"][str(cfg.seed)]
    got = cases.cell_fingerprint(_run(cfg, False))
    for key in ("makespan", "pages_read", "pages_written", "switch_count",
                "vmm_stats"):
        assert got[key] == pinned[key], key
