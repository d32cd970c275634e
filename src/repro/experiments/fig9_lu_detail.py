"""Figure 9 — per-mechanism breakdown for LU (§4.3).

LU runs in three configurations (serial class B; parallel class C on
two and on four machines) under six policy combinations: ``lru``
(original), ``ai``, ``so``, ``so/ao``, ``so/ao/bg``, ``so/ao/ai/bg``.

Paper observations to reproduce in shape:

* adaptive page-in (``ai``) and selective page-out (``so``) are each
  individually worth > 65 % reduction;
* adding aggressive page-out slightly hurts the *serial* case (too many
  page-outs together) and background writing recovers it;
* the full combination reaches 83 % / 61 % / 71 % reduction for
  serial / 2-machine / 4-machine runs.
"""

from __future__ import annotations

from repro.core.policies import PAPER_POLICIES
from repro.experiments.runner import (
    GangConfig,
    makespans,
    mode_configs,
    run_grids,
)
from repro.metrics.analysis import overhead_fraction, paging_reduction
from repro.metrics.report import format_table, percent

#: (label, class, nprocs, quantum)
CONFIGS = (
    ("serial", "B", 1, 300.0),
    ("2 machines", "C", 2, 300.0),
    ("4 machines", "C", 4, 300.0),
)

ADAPTIVE_POLICIES = tuple(p for p in PAPER_POLICIES if p != "lru")

PAPER_FULL_REDUCTION = {"serial": 0.83, "2 machines": 0.61,
                        "4 machines": 0.71}


def grid(scale: float = 1.0, seed: int = 1) -> dict:
    """The Figure 9 cell grid: config label -> {mode: config}."""
    return {
        label: mode_configs(
            GangConfig("LU", klass, nprocs=nprocs, quantum_s=quantum,
                       seed=seed, scale=scale),
            PAPER_POLICIES,
        )
        for label, klass, nprocs, quantum in CONFIGS
    }


def reduce(cases: dict, results: dict) -> dict:
    """records[config_label][policy] from a :func:`run_grids` result."""
    records: dict[str, dict] = {}
    for label, modes in cases.items():
        mk = makespans(modes, results)
        batch, lru = mk["batch"], mk["lru"]
        per_policy = {"batch": {"makespan_s": batch}}
        for pol in PAPER_POLICIES:
            per_policy[pol] = {
                "makespan_s": mk[pol],
                "overhead": overhead_fraction(mk[pol], batch),
                "reduction": paging_reduction(lru, mk[pol], batch),
            }
        records[label] = per_policy
    return records


def run(scale: float = 1.0, seed: int = 1, quiet: bool = False,
        jobs: int = 1) -> dict:
    """Run Figure 9; returns records[config_label][policy]."""
    cases = grid(scale, seed)
    records = reduce(cases, run_grids(cases, jobs=jobs, context="fig9"))
    if not quiet:
        print(render(records))
    return records


def render(records: dict) -> str:
    blocks = []
    # (a) completion times
    rows = []
    for label, per_policy in records.items():
        rows.append(
            [label]
            + [f"{per_policy[p]['makespan_s']:.0f}" for p in PAPER_POLICIES]
            + [f"{per_policy['batch']['makespan_s']:.0f}"]
        )
    blocks.append(
        format_table(
            ("config", *PAPER_POLICIES, "batch"),
            rows,
            title="Fig 9(a) — LU completion time [s] per policy combination",
        )
    )
    # (b) overhead
    rows = [
        [label] + [percent(per[p]["overhead"]) for p in PAPER_POLICIES]
        for label, per in records.items()
    ]
    blocks.append(
        format_table(
            ("config", *PAPER_POLICIES),
            rows,
            title="Fig 9(b) — paging overhead fraction",
        )
    )
    # (c) reduction over the original algorithm
    rows = [
        [label]
        + [percent(per[p]["reduction"]) for p in ADAPTIVE_POLICIES]
        + [percent(PAPER_FULL_REDUCTION[label])]
        for label, per in records.items()
    ]
    blocks.append(
        format_table(
            ("config", *ADAPTIVE_POLICIES, "paper so/ao/ai/bg"),
            rows,
            title="Fig 9(c) — reduction in paging overhead vs original",
        )
    )
    return "\n\n".join(blocks)


if __name__ == "__main__":
    run()
