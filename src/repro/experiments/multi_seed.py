"""Multi-seed replication and summary statistics.

The paper reports single measurements; a reproduction should show how
stable the derived quantities are across workload randomisations (CG's
and IS's access shuffles are seed-dependent).  :func:`replicate` runs
one configuration across several seeds and summarises overhead and
reduction with mean / standard deviation / min / max.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.experiments.runner import GangConfig, mode_configs, run_cell
from repro.metrics.analysis import overhead_fraction, paging_reduction
from repro.metrics.report import format_table
from repro.perf.pool import Cell, run_cells
from repro.perf.supervisor import require_ok


@dataclass(frozen=True)
class Summary:
    """Mean/stddev/extremes of one metric across seeds."""

    mean: float
    std: float
    min: float
    max: float
    n: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise ValueError("no values to summarise")
        return cls(
            float(arr.mean()),
            float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            float(arr.min()),
            float(arr.max()),
            int(arr.size),
        )

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.std:.3f} [{self.min:.3f}, {self.max:.3f}]"


def cell_grid(
    base: GangConfig, policy: str, seeds: Sequence[int]
) -> list[Cell]:
    """The (seed, mode) cell grid behind :func:`replicate`.

    One cell per independent simulation: batch, lru and the policy run
    for every seed (the policy run is dropped when it *is* lru).
    """
    return [
        Cell((seed, label), run_cell, {"cfg": cfg})
        for seed in seeds
        for label, cfg in mode_configs(replace(base, seed=seed),
                                       ("lru", policy)).items()
    ]


def replicate(
    base: GangConfig,
    policy: str = "so/ao/ai/bg",
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    jobs: int = 1,
) -> dict:
    """Run ``base`` across ``seeds``; summarise overhead and reduction.

    ``jobs``: worker processes for the (seed, mode) sweep grid; the
    result is identical for any value (see :mod:`repro.perf.pool`).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    results = require_ok(
        run_cells(cell_grid(base, policy, seeds), jobs=jobs),
        context="multi_seed replicate")
    overhead_lru: list[float] = []
    overhead_pol: list[float] = []
    reduction: list[float] = []
    pol_key = policy if policy != "lru" else "lru"
    for seed in seeds:
        batch = results[(seed, "batch")]["makespan"]
        lru = results[(seed, "lru")]["makespan"]
        mine = results[(seed, pol_key)]["makespan"]
        overhead_lru.append(overhead_fraction(lru, batch))
        overhead_pol.append(overhead_fraction(mine, batch))
        reduction.append(paging_reduction(lru, mine, batch))
    return {
        "policy": policy,
        "seeds": tuple(seeds),
        "overhead_lru": Summary.of(overhead_lru),
        "overhead_policy": Summary.of(overhead_pol),
        "reduction": Summary.of(reduction),
    }


def render(record: dict, label: str = "") -> str:
    """Table view of a :func:`replicate` record."""
    rows = [
        ("overhead, lru", str(record["overhead_lru"])),
        (f"overhead, {record['policy']}", str(record["overhead_policy"])),
        ("reduction", str(record["reduction"])),
    ]
    return format_table(
        ("metric", f"mean ± std [min, max]  (n={len(record['seeds'])})"),
        rows,
        title=f"Multi-seed replication {label}".rstrip(),
    )


__all__ = ["Summary", "cell_grid", "render", "replicate"]
