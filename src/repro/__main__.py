"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``list``                 show every reproducible experiment
``run <experiment>``     run one experiment (``--scale``, ``--seed``)
``all``                  run every experiment in sequence
``replicate``            multi-seed stability check for one workload
``obs <trace>``          switch-phase / event-log report from a saved file
``cache stats|clear``    inspect / wipe the cell result cache

``run``, ``all`` and ``replicate`` accept ``--obs`` (collect telemetry
and print the switch-phase breakdown) and ``--trace-out FILE`` (also
write a Chrome trace viewable in chrome://tracing or Perfetto; implies
``--obs``).  Telemetry spans sweeps: with ``--jobs N`` every worker
ships its counters and spans back through the ``"_perf"`` channel and
the exported trace is the cross-cell merge, one track group per cell
(`repro.obs.sweep`).  ``cellcache_*`` / ``supervisor_*`` host-side
counters appear in the report alongside the phase table.

``run``, ``all`` and ``replicate`` accept the resilient-sweep flags:
``--max-retries N`` (bounded per-cell retries with exponential
backoff), ``--cell-timeout SECONDS`` (fixed per-cell deadline; hung
workers are killed and the cell rescheduled) and ``--resume`` (skip
cells a previous interrupted run already completed, via the journal
under ``results/.sweepjournal``).  Any of them installs the sweep
supervisor (``repro.perf.supervisor``): a crashed or hung worker is
replaced by one fresh worker instead of sinking the sweep, and cells
that exhaust their retries are quarantined under the reserved
``"_failed"`` key of the merged record.

``--cache`` enables the content-addressed cell result cache
(``results/.cellcache``): sweep cells whose code + config fingerprint
was already produced are served from disk instead of re-simulated, so
a warm ``python -m repro all --cache`` rerun skips every unchanged
cell.  ``--profile`` wraps the run in cProfile and writes a ``pstats``
dump next to the record.

Examples::

    python -m repro list
    python -m repro run fig7 --scale 0.2
    python -m repro run fig6 --scale 0.1 --obs --trace-out fig6.trace.json
    python -m repro obs fig6.trace.json
    python -m repro replicate --bench CG --klass B --seeds 1 2 3
    python -m repro replicate --jobs 4 --obs --trace-out sweep.trace.json
    python -m repro obs results/.sweepjournal/<sweep>.events.jsonl
    python -m repro all --scale 0.1 --cache
    python -m repro cache stats
"""

from __future__ import annotations

import argparse
import inspect
import sys

from repro.experiments import (
    ablation_bgwrite,
    ablation_wsestimator,
    calibration,
    ablation_false_eviction,
    ablation_readahead,
    extension_admission,
    extension_characterization,
    extension_diskched,
    extension_faults,
    extension_jobstream,
    extension_matrix,
    extension_policies,
    extension_quantum,
    extension_scaling,
    extension_topology,
    fig1_compaction,
    fig6_traces,
    fig7_serial,
    fig8_parallel,
    fig9_lu_detail,
    fig_summary,
    motivation_moreira,
    sensitivity,
)

EXPERIMENTS = {
    "fig1": (fig1_compaction, "Fig 1 — paging compaction, measured"),
    "fig6": (fig6_traces, "Fig 6 — LU.C x 4 paging activity traces"),
    "fig7": (fig7_serial, "Fig 7 — serial NPB class B"),
    "fig8": (fig8_parallel, "Fig 8 — parallel NPB on 2 and 4 nodes"),
    "fig9": (fig9_lu_detail, "Fig 9 — LU per-mechanism detail"),
    "motivation": (motivation_moreira, "§1 — Moreira et al. slowdown"),
    "bgwrite": (ablation_bgwrite, "§3.4 — background-write window sweep"),
    "readahead": (ablation_readahead, "§3.3 — read-ahead vs adaptive page-in"),
    "false-eviction": (ablation_false_eviction, "§3.1 — refault counting"),
    "ws-estimator": (ablation_wsestimator,
                     "§3.2 — working-set estimate source"),
    "quantum": (extension_quantum, "ext — overhead vs quantum length"),
    "policies": (extension_policies, "ext — baseline replacement policies"),
    "scaling": (extension_scaling, "ext — 2/4/8/16-node clusters"),
    "diskched": (extension_diskched, "ext — elevator vs adaptive paging"),
    "faults": (extension_faults, "ext — graceful degradation under faults"),
    "admission": (extension_admission, "ext — admission control (ref. [15])"),
    "matrix": (extension_matrix, "ext — mixed workload scheduling matrix"),
    "jobstream": (extension_jobstream, "ext — open-system arrival stream"),
    "sensitivity": (sensitivity, "robustness of the headline result"),
    "summary": (fig_summary, "paper-vs-measured one-table summary"),
    "calibration": (calibration, "disk-parameter calibration grid"),
    "topology": (extension_topology, "ext — rack topology vs paging"),
    "characterization": (extension_characterization,
                         "ext — workload properties vs adaptive win"),
}


def _positive_int(text: str) -> int:
    """argparse type for ``--jobs``: an int that is at least 1.

    Mirrors the ``run_cells(jobs=...)`` validation so a bad value dies
    at the parser with a clear message instead of deep in the pool.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 (got {value}); jobs counts worker processes"
        )
    return value


def _jobs_arg(text: str) -> int:
    """argparse type for ``--jobs``: an int >= 1, or ``auto`` for the
    host CPU count (see :func:`repro.perf.backend.resolve_jobs`)."""
    if text.strip().lower() == "auto":
        from repro.perf.backend import resolve_jobs

        return resolve_jobs("auto")
    return _positive_int(text)


def cmd_list(_args) -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for key, (_mod, desc) in EXPERIMENTS.items():
        print(f"  {key.ljust(width)}  {desc}")
    return 0


def _run_kwargs(module, args) -> dict:
    """Build ``module.run`` kwargs, forwarding ``--jobs`` only to the
    sweep experiments whose run() accepts it (serial output is
    bit-for-bit identical either way, see repro.perf.pool)."""
    kwargs = {"scale": args.scale, "seed": args.seed}
    jobs = getattr(args, "jobs", 1)
    if jobs != 1 and "jobs" in inspect.signature(module.run).parameters:
        kwargs["jobs"] = jobs
    return kwargs


def _obs_begin(args):
    """Install the process-default telemetry registry AND sweep observer.

    The registry collects in-process telemetry (serial runs, host-side
    ``cellcache_*`` / ``supervisor_*`` counters); the sweep observer
    makes ``--jobs N`` workers capture and ship theirs back, so the
    exported trace is never silently main-process-only.
    """
    if not (getattr(args, "obs", False) or getattr(args, "trace_out", None)):
        return None
    from repro.obs import Registry, SweepObserver, set_default, \
        set_default_sweep

    reg = Registry()
    set_default(reg)
    sweep = SweepObserver()
    set_default_sweep(sweep)
    return reg, sweep


def _obs_finish(handle, args) -> None:
    """Report and export the collected telemetry, then uninstall."""
    if handle is None:
        return
    reg, sweep = handle
    from repro.obs import (
        phase_breakdown,
        render_counter_table,
        render_phase_table,
        set_default,
        set_default_sweep,
        write_chrome_trace,
    )

    set_default(None)
    set_default_sweep(None)
    if sweep.cell_count:
        # cross-process merge: worker spans/counters join the
        # main-process registry before reporting and trace export
        reg.merge(sweep.registry)
        print(f"\nsweep telemetry: merged {sweep.cell_count} cell "
              f"snapshot(s)"
              + (f", {sweep.cells_skipped} without telemetry"
                 if sweep.cells_skipped else ""))
    print()
    print(render_phase_table(phase_breakdown(reg)))
    host = render_counter_table(
        reg, prefixes=("cellcache_", "supervisor_"),
        title="Host-side counters")
    if "<no matching counters>" not in host:
        print()
        print(host)
    if getattr(args, "trace_out", None):
        path = write_chrome_trace(reg, args.trace_out)
        print(f"chrome trace written to {path}")


def _cache_begin(args):
    """Install the process-default cell cache when ``--cache`` is on."""
    if not getattr(args, "cache", False):
        return None
    from repro.perf.cache import CellCache, set_default_cache

    cache = CellCache()
    set_default_cache(cache)
    return cache


def _cache_finish(cache) -> None:
    """Print session cache counters, then uninstall the default."""
    if cache is None:
        return
    from repro.perf.cache import set_default_cache

    set_default_cache(None)
    s = cache.stats()
    rate = "" if s["hit_rate"] is None \
        else f", {100.0 * s['hit_rate']:.0f}% hit rate"
    print(f"\ncell cache: {s['hits']} hits, {s['misses']} misses, "
          f"{s['stores']} stores{rate} ({s['entries']} entries on disk, "
          f"{s['bytes'] / 1024:.0f} KiB at {s['root']})")


def _executor_finish() -> None:
    """Print warm-executor stats (if one was spun up) and shut the
    workers down."""
    from repro.perf.persistent import (
        peek_default_executor,
        shutdown_default_executor,
    )

    executor = peek_default_executor()
    if executor is not None:
        s = executor.stats
        print(f"\npersistent executor: {s['spawns']} workers spawned, "
              f"{s['respawns']} respawned, {s['sweeps']} sweeps, "
              f"{s['dispatches']} dispatches, "
              f"{s['spec_bytes'] / 1024:.0f} KiB spec tables")
    shutdown_default_executor()


def _supervisor_begin(args):
    """Install the process-default sweep supervisor when any of the
    resilience flags (``--max-retries``, ``--cell-timeout``,
    ``--resume``, hidden ``--chaos``) was given."""
    retries = getattr(args, "max_retries", None)
    timeout = getattr(args, "cell_timeout", None)
    resume = getattr(args, "resume", False)
    chaos = getattr(args, "chaos", None)
    if retries is None and timeout is None and not resume \
            and chaos is None:
        return None
    from repro.perf.supervisor import (
        Supervisor,
        SupervisorConfig,
        set_default_supervisor,
    )

    kwargs: dict = {"journal": True, "resume": resume}
    if retries is not None:
        kwargs["max_retries"] = retries
    if timeout is not None:
        kwargs["cell_timeout_s"] = timeout
    if chaos:
        from repro.faults.worker import WorkerFaultPlan

        kwargs["worker_faults"] = WorkerFaultPlan.parse(chaos)
    supervisor = Supervisor(SupervisorConfig(**kwargs))
    set_default_supervisor(supervisor)
    return supervisor


def _supervisor_finish(supervisor) -> None:
    """Print the supervision summary, then uninstall the default."""
    if supervisor is None:
        return
    from repro.perf.supervisor import set_default_supervisor

    set_default_supervisor(None)
    s = supervisor.stats
    print(f"\nsupervisor: {s['completed']} cells completed, "
          f"{s['resumed']} resumed, {s['retries']} retries, "
          f"{s['respawns']} worker respawns, "
          f"{s['timeouts']} timeouts, "
          f"{s['deadline_extensions']} deadline extensions, "
          f"{s['quarantined']} quarantined")
    counts = supervisor.events.counts()
    if counts:
        line = ", ".join(f"{k}={v}" for k, v in counts.items())
        where = f" (log: {supervisor.events.path})" \
            if supervisor.events.path else ""
        print(f"supervisor events: {line}{where}")


def _profiled(args, default_stem: str, fn):
    """Run ``fn()``; with ``--profile``, wrap it in cProfile and write a
    pstats dump next to the record (``<json path>.pstats`` when
    ``--json`` is given, ``<default_stem>.pstats`` otherwise)."""
    if not getattr(args, "profile", False):
        return fn()
    import cProfile
    import pstats

    out = f"{args.json}.pstats" if getattr(args, "json", None) \
        else f"{default_stem}.pstats"
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return fn()
    finally:
        profiler.disable()
        profiler.dump_stats(out)
        top = pstats.Stats(profiler)
        print(f"\nprofile written to {out} "
              f"({int(top.total_calls)} calls, {top.total_tt:.2f}s); "
              f"inspect with: python -m pstats {out}")


def cmd_run(args) -> int:
    entry = EXPERIMENTS.get(args.experiment)
    if entry is None:
        print(f"unknown experiment {args.experiment!r}; "
              f"try: python -m repro list", file=sys.stderr)
        return 2
    module, _ = entry
    reg = _obs_begin(args)
    cache = _cache_begin(args)
    supervisor = _supervisor_begin(args)
    try:
        record = _profiled(
            args, args.experiment,
            lambda: module.run(**_run_kwargs(module, args)),
        )
    finally:
        _executor_finish()
        _supervisor_finish(supervisor)
        _cache_finish(cache)
        _obs_finish(reg, args)
    if args.json:
        from repro.experiments.report_io import save_record

        path = save_record(record, args.json)
        print(f"\nrecord written to {path}")
    return 0


def cmd_all(args) -> int:
    reg = _obs_begin(args)
    cache = _cache_begin(args)
    supervisor = _supervisor_begin(args)

    def _run_all():
        for key, (module, desc) in EXPERIMENTS.items():
            print(f"\n##### {key} — {desc}\n")
            module.run(**_run_kwargs(module, args))

    try:
        _profiled(args, "all", _run_all)
    finally:
        _executor_finish()
        _supervisor_finish(supervisor)
        _cache_finish(cache)
        _obs_finish(reg, args)
    return 0


def cmd_cache(args) -> int:
    from repro.perf.cache import CellCache

    cache = CellCache(root=args.dir)
    if args.action == "stats":
        s = cache.stats()
        print(f"cell cache at {s['root']}: {s['entries']} entries, "
              f"{s['bytes'] / 1024:.0f} KiB")
        life = s["lifetime"]
        if s["lifetime_hit_rate"] is None:
            print("hit rate: no recorded traffic")
        else:
            print(f"hit rate: {100.0 * s['lifetime_hit_rate']:.0f}% "
                  f"lifetime ({life['hits']} hits / "
                  f"{life['hits'] + life['misses']} lookups, "
                  f"{life['stores']} stores, "
                  f"{life['corrupt']} corrupt)")
    else:  # clear
        removed = cache.clear()
        print(f"cleared {removed} cached cell results from {cache.root}")
    return 0


def cmd_obs(args) -> int:
    from repro.obs import (
        load_events,
        load_spans,
        phase_breakdown,
        render_event_table,
        render_phase_table,
    )

    try:
        spans = load_spans(args.trace)
    except (OSError, ValueError):
        spans = []
    if not spans:
        # not a trace — maybe a supervisor event log
        events = load_events(args.trace)
        if events:
            print(render_event_table(
                events, title=f"Supervisor events — {args.trace}"))
            return 0
        print(f"no spans or events found in {args.trace}",
              file=sys.stderr)
        return 1
    rows = phase_breakdown(spans, run=args.run)
    print(render_phase_table(
        rows, title=f"Switch-phase breakdown — {args.trace}"
    ))
    return 0


def cmd_trace(args) -> int:
    import numpy as np

    from repro.workloads import make_npb
    from repro.workloads.trace import Trace

    w = make_npb(args.bench, args.klass, args.nodes)
    if args.scale != 1.0:
        w.footprint_pages = max(64, int(w.footprint_pages * args.scale))
        w.cpu_it_s *= args.scale
    trace = Trace.record(w, np.random.default_rng(args.seed))
    trace.save(args.out)
    print(
        f"recorded {trace.name}: {trace.nphases} phases, "
        f"{trace.total_pages_touched} page touches, "
        f"{trace.total_cpu_s:.0f}s CPU -> {args.out}"
    )
    return 0


def cmd_replicate(args) -> int:
    from repro.experiments.multi_seed import render, replicate
    from repro.experiments.runner import GangConfig

    cfg = GangConfig(args.bench, args.klass, nprocs=args.nodes,
                     scale=args.scale)
    reg = _obs_begin(args)
    supervisor = _supervisor_begin(args)
    try:
        record = replicate(cfg, policy=args.policy, seeds=args.seeds,
                           jobs=args.jobs)
    finally:
        _executor_finish()
        _supervisor_finish(supervisor)
        _obs_finish(reg, args)
    print(render(record, label=cfg.label()))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show available experiments")

    def add_resilience_flags(p) -> None:
        """The supervised-sweep flags shared by run/all/replicate."""
        p.add_argument("--max-retries", type=int, default=None,
                       metavar="N",
                       help="re-execute a failed sweep cell up to N "
                            "times (exponential backoff) before "
                            "quarantining it under '_failed'")
        p.add_argument("--cell-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-cell wall-clock deadline; a hung "
                            "worker is killed and the cell rescheduled")
        p.add_argument("--resume", action="store_true",
                       help="resume an interrupted sweep: skip cells "
                            "the journal under results/.sweepjournal "
                            "already marks completed")
        # hidden: deterministic host fault injection for chaos testing,
        # e.g. --chaos crash=0.3,hang=0.1,seed=7 (see
        # repro.faults.worker.WorkerFaultPlan.parse)
        p.add_argument("--chaos", default=None, help=argparse.SUPPRESS)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("experiment", help="experiment key (see `list`)")
    p_run.add_argument("--scale", type=float, default=1.0)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--jobs", type=_jobs_arg, default=1,
                       help="worker processes for sweep experiments "
                            "(1 = serial, 'auto' = host CPU count; "
                            "results are identical)")
    add_resilience_flags(p_run)
    p_run.add_argument("--json", metavar="PATH",
                       help="also write the structured record as JSON")
    p_run.add_argument("--obs", action="store_true",
                       help="collect telemetry; print the switch-phase "
                            "breakdown after the run")
    p_run.add_argument("--trace-out", metavar="FILE",
                       help="write a Chrome trace of the run "
                            "(implies --obs)")
    p_run.add_argument("--cache", action=argparse.BooleanOptionalAction,
                       default=False,
                       help="serve sweep cells from the content-addressed "
                            "result cache (results/.cellcache)")
    p_run.add_argument("--profile", action="store_true",
                       help="profile the run with cProfile; write a "
                            "pstats dump next to the record")

    p_all = sub.add_parser("all", help="run everything")
    p_all.add_argument("--scale", type=float, default=1.0)
    p_all.add_argument("--seed", type=int, default=1)
    p_all.add_argument("--jobs", type=_jobs_arg, default=1,
                       help="worker processes for sweep experiments "
                            "('auto' = host CPU count)")
    add_resilience_flags(p_all)
    p_all.add_argument("--obs", action="store_true",
                       help="collect telemetry across all experiments")
    p_all.add_argument("--trace-out", metavar="FILE",
                       help="write a Chrome trace (implies --obs)")
    p_all.add_argument("--cache", action=argparse.BooleanOptionalAction,
                       default=False,
                       help="serve sweep cells from the content-addressed "
                            "result cache (results/.cellcache)")
    p_all.add_argument("--profile", action="store_true",
                       help="profile the whole invocation with cProfile")

    p_tr = sub.add_parser("trace", help="record an NPB workload trace")
    p_tr.add_argument("--bench", default="LU")
    p_tr.add_argument("--klass", default="B")
    p_tr.add_argument("--nodes", type=int, default=1)
    p_tr.add_argument("--seed", type=int, default=1)
    p_tr.add_argument("--scale", type=float, default=1.0)
    p_tr.add_argument("--out", default="trace.npz")

    p_rep = sub.add_parser("replicate", help="multi-seed stability check")
    p_rep.add_argument("--bench", default="LU")
    p_rep.add_argument("--klass", default="B")
    p_rep.add_argument("--nodes", type=int, default=1)
    p_rep.add_argument("--policy", default="so/ao/ai/bg")
    p_rep.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p_rep.add_argument("--scale", type=float, default=0.2)
    p_rep.add_argument("--jobs", type=_jobs_arg, default=1,
                       help="worker processes for the seed sweep "
                            "('auto' = host CPU count)")
    p_rep.add_argument("--obs", action="store_true",
                       help="collect telemetry across the seed sweep; "
                            "print the merged switch-phase breakdown")
    p_rep.add_argument("--trace-out", metavar="FILE",
                       help="write the merged cross-cell Chrome trace "
                            "(implies --obs)")
    add_resilience_flags(p_rep)

    p_obs = sub.add_parser(
        "obs", help="switch-phase / event-log report from a saved file"
    )
    p_obs.add_argument("trace",
                       help="Chrome-trace JSON, telemetry JSONL or a "
                            "supervisor event log")
    p_obs.add_argument("--run", default=None,
                       help="restrict to one run scope (trace process name)")

    p_cache = sub.add_parser(
        "cache", help="inspect or wipe the cell result cache"
    )
    p_cache.add_argument("action", choices=("stats", "clear"))
    p_cache.add_argument("--dir", default=None,
                         help="cache directory "
                              "(default: results/.cellcache)")

    args = parser.parse_args(argv)
    from repro.perf.supervisor import QuarantinedCells

    try:
        return {
            "list": cmd_list,
            "run": cmd_run,
            "all": cmd_all,
            "trace": cmd_trace,
            "replicate": cmd_replicate,
            "obs": cmd_obs,
            "cache": cmd_cache,
        }[args.command](args)
    except QuarantinedCells as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: raise --max-retries / --cell-timeout, or rerun "
              "with --resume to retry only the failed cells",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
