"""The grid harnesses, run as cell tables, reproduce the serial loop.

Fig 7/8/9, ``calibration``, ``extension_characterization`` and
``extension_scaling`` once ran their grids through a serial loop: per
case, a batch run and then one gang run per policy, each a
:func:`run_experiment` call.  The reference builders below are that
loop and the records the six harnesses built from it, kept as they
were.  Every harness now runs its grid as one ``run_cells`` table keyed
by config, and must return a record that is byte-identical to the
reference under ``json.dumps(sort_keys=True)`` at ``jobs=1`` and
``jobs=2``.

The reference is computed on the same host, never pinned: the LRU tie
order depends on the CPU's SIMD level (DESIGN.md, "LRU tie-break at the
cut-off").
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.policies import PAPER_POLICIES
from repro.disk.device import DiskParams
from repro.experiments import (
    calibration,
    extension_characterization,
    extension_scaling,
    fig7_serial,
    fig8_parallel,
    fig9_lu_detail,
    fig_summary,
    runner,
)
from repro.experiments.report_io import _sanitise
from repro.experiments.runner import GangConfig, run_cell, run_experiment
from repro.mem.params import pages_to_mb
from repro.metrics.analysis import overhead_fraction, paging_reduction
from repro.workloads.analysis import profile_workload
from repro.workloads.npb import make_npb

SCALE = 0.04
SEED = 1


def canon(record) -> str:
    return json.dumps(_sanitise(record), sort_keys=True)


# ---------------------------------------------------------------------------
# reference: the serial loop and the records built from it
# ---------------------------------------------------------------------------

def _run_modes(base, policies):
    out = {"batch": run_experiment(replace(base, mode="batch"))}
    for pol in policies:
        out[pol] = run_experiment(replace(base, mode="gang", policy=pol))
    return out


def _adaptive_record(res):
    batch = res["batch"].makespan
    lru = res["lru"].makespan
    full = res["so/ao/ai/bg"].makespan
    return {
        "batch_s": batch,
        "lru_s": lru,
        "adaptive_s": full,
        "overhead_lru": overhead_fraction(lru, batch),
        "overhead_adaptive": overhead_fraction(full, batch),
        "reduction": paging_reduction(lru, full, batch),
    }


def ref_fig7(scale, seed):
    records = {}
    for bench in fig7_serial.BENCHMARKS:
        cfg = GangConfig(bench, "B", nprocs=1, seed=seed, scale=scale)
        res = _run_modes(cfg, fig7_serial.POLICIES)
        records[bench] = {
            **_adaptive_record(res),
            "paper_reduction": fig7_serial.PAPER_REDUCTION[bench],
        }
    return records


def ref_fig8(scale, seed):
    records = {}
    for bench, nprocs, quantum in fig8_parallel.CASES:
        cfg = GangConfig(bench, "C", nprocs=nprocs, quantum_s=quantum,
                         seed=seed, scale=scale)
        res = _run_modes(cfg, fig8_parallel.POLICIES)
        records[(bench, nprocs)] = {
            **_adaptive_record(res),
            "paper_reduction":
                fig8_parallel.PAPER_REDUCTION.get((bench, nprocs)),
        }
    return records


def ref_fig9(scale, seed):
    records = {}
    for label, klass, nprocs, quantum in fig9_lu_detail.CONFIGS:
        cfg = GangConfig("LU", klass, nprocs=nprocs, quantum_s=quantum,
                         seed=seed, scale=scale)
        res = _run_modes(cfg, PAPER_POLICIES)
        batch = res["batch"].makespan
        lru = res["lru"].makespan
        per_policy = {"batch": {"makespan_s": batch}}
        for pol in PAPER_POLICIES:
            mk = res[pol].makespan
            per_policy[pol] = {
                "makespan_s": mk,
                "overhead": overhead_fraction(mk, batch),
                "reduction": paging_reduction(lru, mk, batch),
            }
        records[label] = per_policy
    return records


def ref_calibration(scale, seed):
    records = {}
    for seek, xfer in calibration.GRID:
        disk = DiskParams(seek_s=seek, rotational_s=0.004,
                          transfer_bytes_s=xfer)
        cfg = GangConfig("LU", "B", nprocs=1, seed=seed, scale=scale,
                         disk=disk)
        rec = _adaptive_record(_run_modes(cfg, ["lru", "so/ao/ai/bg"]))
        records[(seek, xfer)] = {
            "overhead_lru": rec["overhead_lru"],
            "overhead_adaptive": rec["overhead_adaptive"],
            "reduction": rec["reduction"],
        }
    return records


def ref_characterization(scale, seed):
    mod = extension_characterization
    records = {}
    for bench in mod.BENCHMARKS:
        w = make_npb(bench, "B")
        profile = profile_workload(
            make_npb(bench, "B", max_phase_pages=8192),
            np.random.default_rng(seed),
        )
        cfg = GangConfig(bench, "B", nprocs=1, memory_mb=mod.MEMORY_MB,
                         seed=seed, scale=scale)
        rec = _adaptive_record(_run_modes(cfg, ["lru", "so/ao/ai/bg"]))
        footprint_mb = pages_to_mb(w.footprint_pages)
        records[bench] = {
            "footprint_mb": footprint_mb,
            "overcommit": 2 * footprint_mb / mod.MEMORY_MB,
            "dirty_ratio": profile.dirty_ratio,
            "mean_reuse_distance": profile.mean_reuse_distance,
            "overhead_lru": rec["overhead_lru"],
            "reduction": rec["reduction"],
        }
    over = [records[b]["overcommit"] for b in mod.BENCHMARKS]
    red = [records[b]["reduction"] for b in mod.BENCHMARKS]
    oh = [records[b]["overhead_lru"] for b in mod.BENCHMARKS]
    records["_correlations"] = {
        "overcommit_vs_overhead": mod._rank_correlation(over, oh),
        "overcommit_vs_reduction": mod._rank_correlation(over, red),
    }
    return records


def ref_scaling(scale, seed):
    records = {}
    for n in extension_scaling.NODE_COUNTS:
        cfg = GangConfig("LU", "C", nprocs=n, seed=seed, scale=scale)
        records[n] = _adaptive_record(
            _run_modes(cfg, extension_scaling.POLICIES))
    return records


HARNESSES = {
    "fig7": (fig7_serial, ref_fig7),
    "fig8": (fig8_parallel, ref_fig8),
    "fig9": (fig9_lu_detail, ref_fig9),
    "calibration": (calibration, ref_calibration),
    "characterization": (extension_characterization, ref_characterization),
    "scaling": (extension_scaling, ref_scaling),
}


@pytest.fixture(scope="module")
def reference():
    return {name: ref(SCALE, SEED) for name, (_, ref) in HARNESSES.items()}


@pytest.fixture(scope="module")
def serial():
    """Every converted harness's record at ``jobs=1``."""
    return {name: mod.run(scale=SCALE, seed=SEED, quiet=True)
            for name, (mod, _) in HARNESSES.items()}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", list(HARNESSES))
def test_harness_record_equals_the_serial_loop(reference, serial, name,
                                               jobs):
    mod, _ = HARNESSES[name]
    got = serial[name] if jobs == 1 else mod.run(
        scale=SCALE, seed=SEED, quiet=True, jobs=jobs)
    want = reference[name]
    assert list(got) == list(want)
    assert canon(got) == canon(want)


# ---------------------------------------------------------------------------
# fig_summary runs the union of the Fig 7/8/9 grids once
# ---------------------------------------------------------------------------

CALLS: list = []


def counting_run_cell(cfg, obs_enabled=False):
    CALLS.append(cfg)
    return run_cell(cfg, obs_enabled)


def test_fig_summary_runs_the_union_once(serial, monkeypatch):
    monkeypatch.setattr(runner, "run_cell", counting_run_cell)
    CALLS.clear()
    record = fig_summary.run(scale=SCALE, seed=SEED, quiet=True)
    # 15 + 24 + 21 runs, less the batch, lru and full-combo runs that
    # Fig 9's three LU configs share with Fig 7 (serial) and Fig 8 (@2, @4)
    assert len(CALLS) == 51
    assert len(set(CALLS)) == 51

    f7, f8, f9 = serial["fig7"], serial["fig8"], serial["fig9"]
    rows = (
        [{"experiment": f"Fig7 {bench}.B serial",
          "measured": r["reduction"], "paper": r["paper_reduction"]}
         for bench, r in f7.items()]
        + [{"experiment": f"Fig8 {bench}.C @{n}",
            "measured": r["reduction"], "paper": r["paper_reduction"]}
           for (bench, n), r in f8.items()]
        + [{"experiment": f"Fig9 LU {label} (full combo)",
            "measured": per["so/ao/ai/bg"]["reduction"],
            "paper": fig9_lu_detail.PAPER_FULL_REDUCTION[label]}
           for label, per in f9.items()]
    )
    assert len(rows) == 16
    assert canon(record["rows"]) == canon(rows)
