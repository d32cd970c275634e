"""Smoke + shape tests for extension experiments, multi-seed and CLI."""

import pytest

from repro.experiments import (
    extension_admission,
    extension_diskched,
    extension_matrix,
    extension_policies,
    extension_quantum,
    extension_scaling,
)
from repro.experiments.multi_seed import Summary, render, replicate
from repro.experiments.runner import GangConfig
from repro.sim import set_fast_path_enabled

SCALE = 0.04


def test_extension_quantum_structure():
    rec = extension_quantum.run(scale=SCALE, quiet=True,
                                quanta=(75.0, 300.0))
    assert 75.0 in rec and 300.0 in rec
    assert extension_quantum.render(rec)


def test_extension_policies_all_baselines():
    rec = extension_policies.run(scale=SCALE, quiet=True)
    assert set(rec) == {"global-lru", "largest-clock", "page-aging"}
    for r in rec.values():
        assert r["adaptive_s"] <= r["lru_s"] * 1.05
    assert extension_policies.render(rec)


def test_extension_scaling_small():
    rec = extension_scaling.run(scale=SCALE, quiet=True, node_counts=(2, 4))
    assert set(rec) == {2, 4}
    assert extension_scaling.render(rec)


def test_extension_diskched_disciplines_tie():
    rec = extension_diskched.run(scale=SCALE, quiet=True)
    assert set(rec) == {"fifo", "sstf", "cscan"}
    makespans = [r["lru"]["makespan_s"] for r in rec.values()]
    # synchronous paging: dispatch order barely matters
    assert max(makespans) <= min(makespans) * 1.05
    assert extension_diskched.render(rec)


#: extension_diskched at scale 0.1, seed 1 — the smallest scale at
#: which the adaptive cells queue two requests, so the elevators pick.
#: The three disciplines tie at this scale.
DISKCHED_ROW_0_1 = {
    "batch_s": 180.029184,
    "lru": {"makespan_s": 196.53146942278522,
            "overhead": 0.083967648902502, "max_queue": 1},
    "so/ao/ai/bg": {"makespan_s": 190.6869351951563,
                    "overhead": 0.05589135503304813, "max_queue": 2},
}


@pytest.mark.parametrize("fast", (True, False), ids=("fast", "oracle"))
def test_extension_diskched_pinned_in_both_modes(fast):
    """Whole-stack check of SSTF/C-SCAN disks: every discipline's
    record matches the pinned values bit for bit, in both modes."""
    set_fast_path_enabled(fast)
    try:
        rec = extension_diskched.run(scale=0.1, quiet=True)
    finally:
        set_fast_path_enabled(True)
    assert rec == {disc: DISKCHED_ROW_0_1
                   for disc in extension_diskched.DISCIPLINES}


def test_extension_admission_tradeoff():
    rec = extension_admission.run(scale=SCALE, quiet=True)
    ac = rec["admission (fits-only)"]
    ad = rec["gang overcommit, adaptive"]
    # admission control never pages
    assert ac["pages_read"] == 0
    # but time-sharing gives the short jobs better response
    assert ad["completions"]["short1"] < ac["completions"]["short1"]
    assert extension_admission.render(rec)


def test_extension_matrix_mixed_workload():
    rec = extension_matrix.run(scale=0.03, quiet=True)
    assert set(rec) == {"lru", "so/ao/ai/bg"}
    for r in rec.values():
        assert all(j["finished"] for j in r["jobs"])
        assert r["matrix_utilization"] == 1.0  # 3 fully packed rows
    assert (rec["so/ao/ai/bg"]["makespan_s"]
            <= rec["lru"]["makespan_s"] * 1.05)
    assert extension_matrix.render(rec)


# ---------------------------------------------------------------------------
# multi-seed replication
# ---------------------------------------------------------------------------

def test_summary_statistics():
    s = Summary.of([1.0, 2.0, 3.0])
    assert s.mean == pytest.approx(2.0)
    assert s.min == 1.0 and s.max == 3.0 and s.n == 3
    assert Summary.of([5.0]).std == 0.0
    with pytest.raises(ValueError):
        Summary.of([])


def test_replicate_runs_across_seeds():
    cfg = GangConfig("LU", "B", nprocs=1, scale=SCALE)
    rec = replicate(cfg, seeds=(1, 2))
    assert rec["reduction"].n == 2
    assert rec["overhead_lru"].mean >= 0
    assert render(rec, "test")
    with pytest.raises(ValueError):
        replicate(cfg, seeds=())


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_list(capsys):
    from repro.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out and "admission" in out


def test_cli_run_unknown_experiment(capsys):
    from repro.__main__ import main

    assert main(["run", "fig99"]) == 2


def test_cli_run_small(capsys):
    from repro.__main__ import main

    assert main(["run", "false-eviction", "--scale", "0.04"]) == 0
    out = capsys.readouterr().out
    assert "refaults" in out


def test_cli_rejects_non_positive_jobs(capsys):
    from repro.__main__ import main

    for argv in (
        ["run", "false-eviction", "--jobs", "0"],
        ["replicate", "--jobs", "-2"],
        ["all", "--jobs", "two"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2  # argparse usage error, at the parser
    assert "must be >= 1" in capsys.readouterr().err


def test_cli_resilience_flags_run_supervised(capsys, tmp_path, monkeypatch):
    from repro.__main__ import main

    monkeypatch.chdir(tmp_path)  # journal lands under tmp results/
    assert main(["replicate", "--bench", "LU", "--klass", "B",
                 "--seeds", "1", "2", "--scale", "0.04",
                 "--max-retries", "2", "--cell-timeout", "600"]) == 0
    out = capsys.readouterr().out
    assert "supervisor:" in out
    assert "0 quarantined" in out
    assert (tmp_path / "results" / ".sweepjournal").is_dir()


def test_cli_quarantined_sweep_fails_with_named_cells(capsys, tmp_path,
                                                      monkeypatch):
    # every attempt of every cell crashes the worker: the sweep must
    # end with a clear named-cell error and exit 1, not a KeyError
    # from deep inside the aggregation
    from repro.__main__ import main

    monkeypatch.chdir(tmp_path)
    rc = main(["replicate", "--bench", "LU", "--klass", "B",
               "--seeds", "5", "--scale", "0.04", "--max-retries", "0",
               "--chaos", "crash=1.0,seed=1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "quarantined" in captured.err
    assert "(5, 'lru')" in captured.err
    assert "--resume" in captured.err  # recovery hint
