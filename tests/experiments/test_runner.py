"""Tests for the experiment runner (small scale)."""

from dataclasses import replace

import pytest

from repro.experiments import (
    GangConfig,
    RunResult,
    mode_configs,
    run_experiment,
    run_grids,
)
from repro.experiments.runner import makespans
from repro.metrics import overhead_fraction, paging_reduction

SCALE = 0.04  # ~14 MB of memory, sub-second runs


def test_batch_mode_runs_jobs_sequentially():
    cfg = GangConfig("LU", "B", nprocs=1, scale=SCALE, mode="batch")
    res = run_experiment(cfg)
    assert isinstance(res, RunResult)
    assert res.switch_count == 0
    assert len(res.completions) == 2
    times = sorted(res.completions.values())
    assert times[1] == res.makespan
    assert times[1] > times[0]


def test_gang_mode_switches():
    cfg = GangConfig("LU", "B", nprocs=1, scale=SCALE, policy="lru")
    res = run_experiment(cfg)
    assert res.switch_count >= 2
    assert res.pages_read > 0 and res.pages_written > 0


def test_same_seed_reproduces_exactly():
    cfg = GangConfig("CG", "B", nprocs=1, scale=SCALE, policy="so/ao/ai/bg",
                     seed=7)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.makespan == b.makespan
    assert a.pages_read == b.pages_read
    assert a.pages_written == b.pages_written


def test_different_seed_changes_stochastic_workload():
    base = GangConfig("CG", "B", nprocs=1, scale=SCALE, policy="lru")
    a = run_experiment(base)
    b = run_experiment(replace(base, seed=99))
    # CG's shuffled access makes paging counts seed-dependent
    assert (a.makespan, a.pages_read) != (b.makespan, b.pages_read)


def test_parallel_run_uses_all_nodes():
    cfg = GangConfig("LU", "C", nprocs=2, scale=SCALE, policy="lru")
    res = run_experiment(cfg)
    assert len(res.vmm_stats) == 2
    nodes = {e.node for e in res.collector.paging}
    assert nodes == {"node0", "node1"}


def test_mode_configs_returns_batch_plus_policies():
    cfg = GangConfig("LU", "B", nprocs=1, scale=SCALE)
    modes = mode_configs(cfg, ["lru", "so"])
    assert list(modes) == ["batch", "lru", "so"]
    assert modes["batch"] == replace(cfg, mode="batch")
    assert modes["so"] == replace(cfg, mode="gang", policy="so")
    res = run_grids({"LU": modes})
    assert list(res) == list(modes.values())
    assert res[modes["batch"]]["switch_count"] == 0


def test_run_result_perf_metrics_populated():
    cfg = GangConfig("LU", "B", nprocs=1, scale=SCALE)
    res = run_experiment(cfg)
    assert res.events_processed > 0
    assert res.wall_s > 0
    assert res.peak_rss_mb > 0
    assert res.events_per_sec == pytest.approx(
        res.events_processed / res.wall_s
    )


def test_adaptive_policy_never_slower_at_small_scale():
    cfg = GangConfig("LU", "B", nprocs=1, scale=SCALE)
    modes = mode_configs(cfg, ["lru", "so/ao/ai/bg"])
    mk = makespans(modes, run_grids({"LU": modes}))
    assert mk["so/ao/ai/bg"] <= mk["lru"]
    red = paging_reduction(mk["lru"], mk["so/ao/ai/bg"], mk["batch"])
    assert red > 0.2


def test_invalid_mode_rejected():
    # validation moved to construction time (GangConfig.__post_init__)
    with pytest.raises(ValueError):
        GangConfig("LU", "B", scale=SCALE, mode="weird")


def test_invalid_njobs_rejected():
    with pytest.raises(ValueError):
        GangConfig("LU", "B", scale=SCALE, njobs=0)


def test_label():
    cfg = GangConfig("LU", "B", nprocs=2, policy="so")
    assert "LU.B" in cfg.label() and "so" in cfg.label()
