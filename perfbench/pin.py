"""Regenerate ``pinned.json``: the simulated fingerprints the benchmark
checks every repetition against.

Run from the repository root, on code whose simulation output is known
to be right (the fingerprints are outputs, not timings, so the host does
not matter)::

    python3 perfbench/pin.py

Pins cover workload seeds ``0 .. SEEDS - 1``.  Sweep cells are pinned
one by one, keyed ``"<seed>:<mode>"``, and are computed serially in this
process, so the benchmark's parallel sweeps are also checked against the
serial path.
"""

from __future__ import annotations

import json
import sys

from run import HERE, use_checkout_sources

SEEDS = 32


def main() -> int:
    use_checkout_sources()
    import cases
    from repro.experiments.multi_seed import cell_grid
    from repro.perf.pool import run_cells

    pins: dict = {}
    for name in cases.CELL_CONFIGS:
        pins[name] = {}
        for seed in range(SEEDS):
            rep = cases.SingleCell(name, seed).rep()
            pins[name].update(rep.prints)
            print(name, seed, rep.prints[str(seed)], file=sys.stderr)
    merged = run_cells(cell_grid(cases.SWEEP_BASE, cases.SWEEP_POLICY,
                                 range(SEEDS + cases.SWEEP_SEEDS - 1)))
    pins["sweep_cg_auto"] = {cases.cell_key(k): cases.record_digest(v)
                             for k, v in merged.items()}
    with open(HERE / "pinned.json", "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
