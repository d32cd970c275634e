"""Cell pool: fan independent simulation cells across worker processes.

A sweep experiment (multi-seed replication, sensitivity grid, extension
matrices) is a set of *cells* — fully independent simulation runs, each
described by a picklable callable plus keyword arguments.  The pool runs
the cells either serially in-process (``jobs=1``, the default) or on the
persistent warm-worker executor (:mod:`repro.perf.persistent`, reached
through :class:`repro.perf.backend.PersistentBackend`), and returns
results keyed by each cell's declared key **in cell-declaration order**.

Determinism contract
--------------------
Parallel output is bit-for-bit identical to serial output:

* every cell is a pure function of its arguments — the only process
  global the simulation stack mutates is the :class:`~repro.gang.job.Job`
  jid counter, which :func:`_execute` resets before every cell in both
  the serial and the parallel path;
* the merge is keyed by *cell index*, never by completion order: each
  result is written into its cell's slot, so work stealing and
  out-of-order completion cannot reorder the merged record;
* wall-clock / RSS measurements are inherently nondeterministic, so cell
  functions must quarantine them under the reserved ``"_perf"`` key of
  their result dict (see :func:`repro.experiments.runner.run_cell`);
  everything outside ``"_perf"`` is covered by the guarantee.

Workers are separate processes; cell functions and their kwargs must be
picklable (module-level functions, frozen dataclasses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.obs.sweep import cell_label


@dataclass(frozen=True)
class Cell:
    """One independent unit of sweep work.

    ``key`` identifies the cell in the merged result mapping (and must
    be unique within one :func:`run_cells` call); ``fn`` is a
    module-level callable invoked as ``fn(**kwargs)`` in the worker.
    """

    key: Hashable
    fn: Callable[..., Any]
    kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        qualname = getattr(self.fn, "__qualname__", "")
        if "<locals>" in qualname or "<lambda>" in qualname:
            raise ValueError(
                f"cell {self.key!r}: fn must be a module-level callable "
                f"(got {qualname!r}) so it can be pickled to workers"
            )


def _execute(cell: Cell, capture: bool) -> Any:
    """Run one cell with per-cell global state reset.

    Both the serial and parallel paths go through here, so a cell sees
    the same process-global state regardless of which worker (or how
    many cells before it) ran in the same interpreter.

    ``capture`` turns on sweep telemetry capture: the cell runs
    against a fresh default registry and its snapshot + flat summary
    are attached under the result's ``"_perf"`` quarantine, so obs-on
    and obs-off results stay byte-identical outside it and cache
    fingerprints (which cover only ``fn`` + ``kwargs``) never change.
    """
    from repro.gang.job import Job

    Job._next_jid = 1
    if not capture:
        return cell.fn(**cell.kwargs)

    from repro.obs import Registry, get_default, set_default
    from repro.obs.export import summary as obs_summary

    prev = get_default()
    reg = Registry()
    set_default(reg)
    try:
        result = cell.fn(**cell.kwargs)
    finally:
        set_default(prev if getattr(prev, "enabled", False) else None)
    # Cells that manage their own registry (run_cell(obs_enabled=True))
    # leave the default one empty and ship their own payload;
    # setdefault keeps theirs.
    if isinstance(result, dict) and (
            reg.spans or reg.counters() or reg.gauges()
            or reg.histograms()):
        perf = result.setdefault("_perf", {})
        perf.setdefault("obs", obs_summary(reg))
        perf.setdefault("obs_snapshot", reg.snapshot())
    return result


def _check_cells(cells: Sequence[Cell]) -> list[Hashable]:
    """Validate a cell list (unique keys); returns the key list."""
    keys = [c.key for c in cells]
    if len(set(keys)) != len(keys):
        seen: set = set()
        dup = next(k for k in keys if k in seen or seen.add(k))
        raise ValueError(f"duplicate cell key: {dup!r}")
    return keys


def run_cells(
    cells: Iterable[Cell] | Sequence[Cell], jobs: int = 1, cache=None,
    supervisor=None, sweep_obs=None,
) -> dict[Hashable, Any]:
    """Run ``cells`` and return ``{cell.key: result}`` in cell order.

    ``jobs=1`` (default) runs everything serially in-process; ``jobs>1``
    fans cells across that many persistent warm workers.  Either way the
    result mapping is built in declaration order, so iteration over the
    return value is deterministic and identical across job counts.

    ``cache`` is an optional :class:`repro.perf.cache.CellCache`; when
    omitted, the process default (installed by the CLI's ``--cache``
    flag via :func:`repro.perf.cache.set_default_cache`) is consulted.
    Cells are pure functions of their arguments, so a fingerprint hit
    returns the stored summary without running the simulation — the
    result is byte-identical to a fresh run outside the ``"_perf"``
    quarantine (where hits are annotated).  Missed cells run (serially
    or in the pool) and are stored back.

    ``supervisor`` is an optional
    :class:`repro.perf.supervisor.Supervisor`; when omitted, the
    process default (installed by the CLI's ``--max-retries`` /
    ``--cell-timeout`` / ``--resume`` flags via
    :func:`repro.perf.supervisor.set_default_supervisor`) is consulted.
    With a supervisor the sweep gains retries, per-cell deadlines,
    worker respawns, poison-cell quarantine and checkpoint/resume; the
    merge contract is unchanged.  Without one, a failing cell's
    exception propagates: serially at once, in parallel once every cell
    has settled (the earliest-declared failure wins).

    ``sweep_obs`` is an optional
    :class:`repro.obs.sweep.SweepObserver`; when omitted, the process
    default (installed by the CLI's ``--obs`` flag via
    :func:`repro.obs.sweep.set_default_sweep`) is consulted.  With one
    installed, every cell captures its telemetry (see
    :func:`_execute`) and the merged results are absorbed into the
    observer's sweep-level registry — per-cell trace tracks, summed
    summaries — without changing anything outside ``"_perf"``.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    cells = list(cells)
    keys = _check_cells(cells)

    if sweep_obs is None:
        from repro.obs.sweep import get_default_sweep

        sweep_obs = get_default_sweep()
    # The capture flag travels with every sweep (worker processes
    # never see the parent's observer), so it cannot go stale.
    capture = sweep_obs is not None

    if supervisor is None:
        from repro.perf.supervisor import get_default_supervisor

        supervisor = get_default_supervisor()
    if supervisor is not None:
        merged = supervisor.run(cells, jobs=jobs, cache=cache,
                                capture=capture)
        if sweep_obs is not None:
            sweep_obs.absorb_results(merged)
        return merged

    if cache is None:
        from repro.perf.cache import get_default_cache

        cache = get_default_cache()

    results: list[Any] = [None] * len(cells)
    todo: list[tuple[int, Cell]] = []
    prints: list[str] = []
    if cache is not None:
        from repro.perf.cache import fingerprint

        prints = [fingerprint(c.fn, c.kwargs) for c in cells]
        for i, cell in enumerate(cells):
            hit = cache.get(prints[i])
            if hit is not None:
                results[i] = hit
            else:
                todo.append((i, cell))
    else:
        todo = list(enumerate(cells))

    if todo:
        if jobs == 1 or len(todo) <= 1:
            fresh = [_execute(c, capture) for _, c in todo]
        else:
            from repro.perf.backend import PersistentBackend

            fresh = PersistentBackend().run([c for _, c in todo], jobs,
                                            capture)
        for (i, cell), result in zip(todo, fresh):
            results[i] = result
            if cache is not None:
                cache.put(prints[i], result, label=cell_label(cell.key))

    merged = dict(zip(keys, results))
    if sweep_obs is not None:
        sweep_obs.absorb_results(merged)
    return merged


__all__ = ["Cell", "run_cells", "_check_cells", "_execute"]
