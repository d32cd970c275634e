"""One-shot paper-vs-measured summary across all headline figures.

Runs the union of the Fig. 7/8/9 cell grids as one cell table and
condenses the three figures into the single comparison table
`EXPERIMENTS.md` reports — the quickest way to see the whole
reproduction at once (use ``scale=1.0`` for the recorded full-size
numbers, smaller scales for a fast look).  The grids are keyed by
config, so the LU cells Fig. 9 shares with Fig. 7 and Fig. 8 run once.
"""

from __future__ import annotations

from repro.experiments import fig7_serial, fig8_parallel, fig9_lu_detail
from repro.experiments.runner import run_grids
from repro.metrics.report import format_table, percent

FIGURES = (fig7_serial, fig8_parallel, fig9_lu_detail)


def run(scale: float = 1.0, seed: int = 1, quiet: bool = False,
        jobs: int = 1) -> dict:
    grids = [fig.grid(scale, seed) for fig in FIGURES]
    results = run_grids(*grids, jobs=jobs, context="fig summary")
    f7, f8, f9 = (fig.reduce(g, results) for fig, g in zip(FIGURES, grids))

    rows = []
    for bench, r in f7.items():
        rows.append({
            "experiment": f"Fig7 {bench}.B serial",
            "measured": r["reduction"],
            "paper": r["paper_reduction"],
        })
    for (bench, n), r in f8.items():
        rows.append({
            "experiment": f"Fig8 {bench}.C @{n}",
            "measured": r["reduction"],
            "paper": r["paper_reduction"],
        })
    for label, per in f9.items():
        rows.append({
            "experiment": f"Fig9 LU {label} (full combo)",
            "measured": per["so/ao/ai/bg"]["reduction"],
            "paper": fig9_lu_detail.PAPER_FULL_REDUCTION[label],
        })
    record = {"rows": rows, "scale": scale}
    if not quiet:
        print(render(record))
    return record


def render(record: dict) -> str:
    table_rows = []
    for row in record["rows"]:
        paper = row["paper"]
        measured = row["measured"]
        delta = (measured - paper) if paper is not None else None
        table_rows.append(
            (
                row["experiment"],
                percent(measured),
                percent(paper) if paper is not None else "-",
                f"{delta:+.0%}" if delta is not None else "-",
            )
        )
    return format_table(
        ("experiment", "measured reduction", "paper", "delta"),
        table_rows,
        title=f"Paper-vs-measured summary (scale {record['scale']})",
    )


if __name__ == "__main__":
    run()
