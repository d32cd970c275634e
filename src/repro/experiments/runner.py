"""Shared experiment runner.

Builds a cluster, instantiates two (or more) identical job instances of
an NPB workload, runs them under a gang or batch scheduler, and collects
the metrics the paper reports.  The ``scale`` knob shrinks memory,
footprint, CPU time and quantum together so the identical experiment
logic runs full-size from the scripts and sub-second from the test and
benchmark suites.

Robustness
----------
A config may carry :class:`~repro.faults.plan.FaultRates`; non-zero
rates build a seeded :class:`~repro.faults.plan.FaultPlan` that is
threaded through every node (disk, recorder) and the gang scheduler.
With all rates zero no plan is built and no RNG stream is drawn, so
fault-free runs are bit-for-bit identical to the pre-fault code.

Two watchdog limits (``max_sim_s``, ``max_events``) bound a run: when
either trips, the runner raises :class:`WatchdogTimeout` naming the
jobs that were still incomplete instead of spinning forever.  Passing
``partial_path`` to :func:`run_experiment` exports a crash-safe partial
record (config, progress, per-job state, fault summary) before any
failure propagates, so a dead run still leaves evidence on disk.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, Hashable, Mapping, Optional, Sequence, Union

from repro.cluster.network import NetworkParams
from repro.cluster.node import Node
from repro.cluster.topology import TwoLevelTopology
from repro.core.policies import PagingPolicy
from repro.disk.device import ERA_DISK, DiskParams
from repro.faults.errors import WatchdogTimeout
from repro.faults.plan import FAULT_FREE, FaultPlan, FaultRates
from repro.gang.job import Job
from repro.gang.scheduler import BatchScheduler, GangScheduler
from repro.mem.params import MemoryParams
from repro.mem.replacement import REPLACEMENT_POLICIES
from repro.metrics.analysis import overhead_fraction, paging_reduction
from repro.metrics.collector import MetricsCollector
from repro.obs import Registry, get_default, summary as obs_summary
from repro.perf.pool import Cell, run_cells
from repro.perf.supervisor import require_ok
from repro.sim.engine import Environment, SimulationError
from repro.sim.rng import RngStreams
from repro.workloads.base import Workload
from repro.workloads.npb import make_npb


@dataclass(frozen=True)
class GangConfig:
    """One experiment run: a workload mix under one scheduling mode."""

    benchmark: str
    klass: str
    nprocs: int = 1
    policy: str = "lru"
    #: usable memory per node in MB — the paper's post-mlock() 350 MB
    memory_mb: float = 350.0
    #: gang time quantum (the paper's default is 5 minutes)
    quantum_s: float = 300.0
    njobs: int = 2
    seed: int = 0
    #: proportional shrink factor for fast runs
    scale: float = 1.0
    #: "gang" or "batch"
    mode: str = "gang"
    #: paging-device model (defaults to the testbed-era disk)
    disk: DiskParams = ERA_DISK
    #: swap-in read-ahead window in pages (the §3.3 ablation sweeps it)
    readahead_pages: int = 16
    #: fraction of the quantum the §3.4 background writer runs (the
    #: ``bg`` ablation sweeps it)
    bg_fraction: float = 0.1
    #: baseline replacement policy, a key of
    #: :data:`~repro.mem.replacement.REPLACEMENT_POLICIES`
    replacement: str = "global-lru"
    #: interconnect of every job (``None`` = the flat default switch)
    network: Optional[Union[NetworkParams, TwoLevelTopology]] = None
    #: fault-injection rates (all-zero = fault-free, no plan built)
    faults: FaultRates = FAULT_FREE
    #: watchdog: abort once virtual time exceeds this many seconds
    max_sim_s: Optional[float] = None
    #: watchdog: abort once this many simulation events were processed
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if self.njobs < 1:
            raise ValueError("njobs must be >= 1")
        if self.memory_mb <= 0:
            raise ValueError("memory_mb must be positive")
        if self.quantum_s <= 0:
            raise ValueError("quantum_s must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.mode not in ("gang", "batch"):
            raise ValueError(
                f"unknown mode {self.mode!r}; expected 'gang' or 'batch'"
            )
        # unknown mechanism ids and a bg_fraction outside [0, 1] raise
        # here, not deep inside node setup
        PagingPolicy.parse(self.policy, bg_fraction=self.bg_fraction)
        if self.readahead_pages <= 0:
            raise ValueError("readahead_pages must be positive")
        if self.replacement not in REPLACEMENT_POLICIES:
            raise ValueError(
                f"unknown replacement {self.replacement!r}; expected one "
                f"of {tuple(REPLACEMENT_POLICIES)}"
            )
        if self.max_sim_s is not None and self.max_sim_s <= 0:
            raise ValueError("max_sim_s must be positive when set")
        if self.max_events is not None and self.max_events <= 0:
            raise ValueError("max_events must be positive when set")

    def label(self) -> str:
        """Short human-readable run identifier for logs/tables."""
        return (
            f"{self.benchmark}.{self.klass}x{self.njobs}@{self.nprocs} "
            f"{self.mode}:{self.policy}"
        )

    def cell_label(self) -> str:
        """:meth:`label` plus the seed, the scale and every other field
        that differs from its default (disk and fault fields by their
        own name): short enough to read in a trace, and unique per
        config.  Names a config-keyed cell under ``--obs``, in the
        supervisor's event log, the journal and the cell cache."""
        parts = [self.label(), f"seed={self.seed}", f"scale={self.scale!r}"]
        for f in fields(self):
            if f.name not in _IN_CELL_LABEL:
                parts += _changed_fields(f.name, getattr(self, f.name),
                                         f.default)
        return " ".join(parts)


#: GangConfig fields :meth:`GangConfig.cell_label` always shows
_IN_CELL_LABEL = frozenset(("benchmark", "klass", "njobs", "nprocs", "mode",
                            "policy", "seed", "scale"))


def _changed_fields(name: str, value, default) -> list[str]:
    """``name=value`` for a field that differs from ``default``; a
    dataclass field is compared field by field."""
    if value == default:
        return []
    if is_dataclass(value) and type(value) is type(default):
        return [part for f in fields(value)
                for part in _changed_fields(f"{name}.{f.name}",
                                            getattr(value, f.name),
                                            getattr(default, f.name))]
    return [f"{name}={value!r}"]


@dataclass
class RunResult:
    """Everything measured in one run."""

    config: GangConfig
    makespan: float
    completions: dict[str, float]
    collector: MetricsCollector
    vmm_stats: list[dict]
    pages_read: int
    pages_written: int
    switch_count: int
    #: jobs evicted by fault degradation: name -> cause
    evicted: dict[str, str] = field(default_factory=dict)
    #: injection and graceful-response counters (all zero when fault-free)
    fault_summary: dict = field(default_factory=dict)
    #: simulation events processed (deterministic per config); kept as
    #: the *dispatched* count for backward compatibility — equal to
    #: ``events_dispatched``
    events_processed: int = 0
    #: logical events (dispatched + absorbed by the batch-advance
    #: tier): comparable across PRs and identical across execution
    #: modes
    events_simulated: int = 0
    #: scalar dispatcher loop iterations: *drops* when batch-advance
    #: engages, so a lower count here is evidence of batching, not of
    #: event loss
    events_dispatched: int = 0
    #: host wall-clock seconds spent in the run (nondeterministic)
    wall_s: float = 0.0
    #: process peak RSS sampled after the run, MB (nondeterministic)
    peak_rss_mb: float = 0.0
    #: the telemetry registry used, when observability was enabled
    obs: Optional[object] = None

    @property
    def avg_completion(self) -> float:
        vals = list(self.completions.values())
        if not vals:
            return float("nan")  # every job was evicted
        return sum(vals) / len(vals)

    @property
    def events_per_sec(self) -> float:
        """Engine throughput for this run (nondeterministic)."""
        if self.wall_s <= 0.0:
            return float("nan")
        return self.events_processed / self.wall_s


def _scaled_workload(cfg: GangConfig, max_phase_pages: int) -> Workload:
    w = make_npb(cfg.benchmark, cfg.klass, cfg.nprocs,
                 max_phase_pages=max_phase_pages)
    if cfg.scale != 1.0:
        w.scale_in_place(cfg.scale)
    return w


def _drive(env: Environment, cfg: GangConfig, jobs: Sequence[Job]) -> None:
    """``env.run()`` under the config's watchdog limits.

    With no limits set this is a plain ``env.run()``; otherwise the
    simulation is stepped manually and aborted with a diagnostic naming
    the incomplete jobs once a limit trips.
    """
    if cfg.max_sim_s is None and cfg.max_events is None:
        env.run()
        return
    while env.live_events > 0:
        if cfg.max_sim_s is not None and env.now > cfg.max_sim_s:
            raise WatchdogTimeout(_watchdog_report(
                cfg, env, jobs, f"sim time {env.now:.1f}s > {cfg.max_sim_s}s"
            ))
        # the limit is on *logical* events (dispatched + absorbed by
        # the batch-advance tier), so a runaway run trips at the same
        # point regardless of execution mode
        if cfg.max_events is not None and env.events_simulated > cfg.max_events:
            raise WatchdogTimeout(_watchdog_report(
                cfg, env, jobs,
                f"{env.events_simulated} events > {cfg.max_events}",
            ))
        env.step()


def _watchdog_report(cfg, env, jobs, limit: str) -> str:
    stuck = [j.name for j in jobs if not j.finished] or ["<none>"]
    return (
        f"{cfg.label()}: watchdog tripped ({limit}); "
        f"incomplete job(s): {', '.join(stuck)}"
    )


def _makespan(jobs: Sequence[Job]) -> float:
    """Schedule makespan, or a clear error if something never finished."""
    hung = [j.name for j in jobs if not j.finished]
    if hung:
        raise SimulationError(
            "simulation quiesced with incomplete job(s): "
            f"{', '.join(hung)} — likely a scheduler or barrier deadlock"
        )
    return max(
        j.completed_at if j.completed_at is not None else j.failed_at
        for j in jobs
    )


def _partial_record(cfg, env, jobs, collector, exc) -> dict:
    return {
        "partial": True,
        "error": f"{type(exc).__name__}: {exc}",
        "label": cfg.label(),
        "config": cfg,
        "sim_time_s": env.now,
        # logical count (dispatched + absorbed): comparable across
        # execution modes, and what the max_events watchdog trips on
        "events_processed": env.events_simulated,
        "events_dispatched": env.events_processed,
        "jobs": {
            j.name: {
                "completed_at": j.completed_at,
                "failed": j.failed,
                "failure": j.failure,
            }
            for j in jobs
        },
        "pages_read": collector.pages_moved("read"),
        "pages_written": collector.pages_moved("write"),
        "fault_summary": collector.fault_summary(),
    }


def run_experiment(
    cfg: GangConfig,
    partial_path: Optional[Union[str, Path]] = None,
    obs=None,
) -> RunResult:
    """Run one configuration to completion and collect metrics.

    ``partial_path``: where to export a crash-safe partial record if the
    run dies (watchdog, injected failure, bug) — the exception still
    propagates afterwards.

    ``obs``: a telemetry :class:`~repro.obs.registry.Registry` (or the
    null registry).  ``None`` resolves the process default
    (:func:`repro.obs.get_default`) — normally the null registry, so
    uninstrumented runs stay zero-cost.  With a real registry the run
    opens a run scope named after ``cfg.label()``, every counter and
    span lands inside it, and the registry is returned on
    ``RunResult.obs``.  Telemetry never creates simulation events, so
    instrumented and uninstrumented runs are bit-for-bit identical in
    makespan and event counts.
    """
    wall_start = time.perf_counter()
    if obs is None:
        obs = get_default()
    run_scope = obs.begin_run(cfg.label()) if obs.enabled else None
    # The run allocates tens of thousands of short-lived events and
    # generator frames per simulated minute; nearly all of them die by
    # refcount, but CPython's cyclic collector still scans them, which
    # costs ~15% of wall time on paging-heavy cells.  Suspend it for the
    # duration of the run; the cycles dead coroutines do leave behind
    # are picked up by the next ambient collection after re-enabling.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        env = Environment()
        rngs = RngStreams(cfg.seed)
        collector = MetricsCollector()
        plan = (
            FaultPlan(cfg.faults, rngs.spawn("faults"))
            if cfg.faults.active
            else None
        )
        collector.attach_faults(plan)
        collector.attach_registry(obs)

        memory_mb = cfg.memory_mb * cfg.scale
        memory = MemoryParams.from_mb(memory_mb,
                                      readahead_pages=cfg.readahead_pages)
        # keep phases comfortably below the reclaim ceiling
        max_phase = min(
            8192, max(64, (memory.total_frames - memory.freepages_high) // 2)
        )
        policy = PagingPolicy.parse(
            cfg.policy if cfg.mode == "gang" else "lru",
            bg_fraction=cfg.bg_fraction,
        )
        replacement = REPLACEMENT_POLICIES[cfg.replacement]
        nodes = [
            Node(
                env, f"node{i}", memory, policy, disk_params=cfg.disk,
                replacement=replacement(),
                # a refault = re-read within half a quantum of eviction —
                # the §3.1 false-eviction signature at any scale
                refault_window_s=0.5 * cfg.quantum_s * cfg.scale,
                faults=plan, obs=obs,
            )
            for i in range(cfg.nprocs)
        ]
        for node in nodes:
            collector.attach_node(node)

        jobs = []
        for j in range(cfg.njobs):
            workloads = [_scaled_workload(cfg, max_phase) for _ in nodes]
            jobs.append(
                Job(f"{cfg.benchmark}#{j}", nodes, workloads,
                    rngs.spawn(f"job{j}"), network=cfg.network)
            )

        if cfg.mode == "batch":
            sched: Union[BatchScheduler, GangScheduler] = BatchScheduler(
                env, jobs
            )
        else:
            sched = GangScheduler(
                env, jobs, quantum_s=cfg.quantum_s * cfg.scale,
                on_switch=collector.on_switch, faults=plan, obs=obs,
            )
        collector.attach_scheduler(sched)
        sched.start()

        try:
            _drive(env, cfg, jobs)
            makespan = _makespan(jobs)
        except Exception as exc:
            if partial_path is not None:
                from repro.experiments.report_io import save_record

                save_record(_partial_record(cfg, env, jobs, collector, exc),
                            partial_path)
            raise
    finally:
        if gc_was_enabled:
            gc.enable()
        if run_scope is not None:
            obs.end_run()

    return RunResult(
        config=cfg,
        makespan=makespan,
        completions={
            j.name: j.completed_at for j in jobs
            if j.completed_at is not None
        },
        collector=collector,
        vmm_stats=[n.vmm.stats.snapshot() for n in nodes],
        pages_read=sum(n.disk.total_pages["read"] for n in nodes),
        pages_written=sum(n.disk.total_pages["write"] for n in nodes),
        switch_count=len(sched.switches)
        if isinstance(sched, GangScheduler) else 0,
        evicted={j.name: j.failure for j in jobs if j.failed},
        fault_summary=collector.fault_summary(),
        events_processed=env.events_processed,
        events_simulated=env.events_simulated,
        events_dispatched=env.events_processed,
        wall_s=time.perf_counter() - wall_start,
        # ru_maxrss is KB on Linux; high-water mark for the process
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        obs=obs if obs.enabled else None,
    )


def run_cell(cfg: GangConfig, obs_enabled: bool = False) -> dict:
    """Run one config and return a picklable summary dict.

    This is the cell function used by the parallel sweep layer
    (:mod:`repro.perf.pool`): everything a sweep experiment consumes
    from a :class:`RunResult`, minus the live collector/scheduler
    objects (which hold generator coroutines and cannot cross a process
    boundary).  All fields are deterministic per config except the
    reserved ``"_perf"`` sub-dict, which carries the host-dependent
    wall-clock / throughput / RSS measurements and is excluded from the
    serial-vs-parallel byte-identity guarantee.

    ``obs_enabled=True`` runs the cell with a fresh telemetry registry
    and ships its :func:`~repro.obs.export.summary` under
    ``["_perf"]["obs"]`` plus the full mergeable
    :meth:`~repro.obs.registry.Registry.snapshot` under
    ``["_perf"]["obs_snapshot"]`` (what the sweep-level
    :class:`~repro.obs.sweep.SweepObserver` folds into the merged
    registry) — quarantined with the other per-host data so obs-on and
    obs-off sweeps stay byte-identical outside ``"_perf"``.
    """
    obs = Registry() if obs_enabled else None
    res = run_experiment(cfg, obs=obs)
    perf = {
        "wall_s": res.wall_s,
        "events_per_sec": res.events_per_sec,
        "peak_rss_mb": res.peak_rss_mb,
    }
    if res.obs is not None:
        perf["obs"] = obs_summary(res.obs)
        perf["obs_snapshot"] = res.obs.snapshot()
    return {
        "makespan": res.makespan,
        "completions": res.completions,
        "avg_completion": res.avg_completion,
        "pages_read": res.pages_read,
        "pages_written": res.pages_written,
        "switch_count": res.switch_count,
        "vmm_stats": res.vmm_stats,
        "evicted": res.evicted,
        "fault_summary": res.fault_summary,
        "events_processed": res.events_processed,
        "events_simulated": res.events_simulated,
        "events_dispatched": res.events_dispatched,
        "_perf": perf,
    }


def mode_configs(
    base: GangConfig, policies: Sequence[str]
) -> dict[str, GangConfig]:
    """``batch`` plus one gang run per policy; keys: "batch", policies."""
    out = {"batch": replace(base, mode="batch")}
    for pol in policies:
        out[pol] = replace(base, mode="gang", policy=pol)
    return out


def run_grids(*grids: Mapping[Hashable, Mapping[str, GangConfig]],
              jobs: int = 1,
              context: str = "experiment grid",
              cell: Optional[Callable[[GangConfig], dict]] = None,
              ) -> dict[GangConfig, dict]:
    """Run every config of ``grids`` once; returns ``{config: record}``.

    A grid maps each case to its ``{mode: config}``, as
    :func:`mode_configs` builds them.  The configs form one
    :func:`~repro.perf.pool.run_cells` table keyed by the (frozen,
    hashable) config itself, so a config shared by several grids is
    simulated once, and ``--jobs``, the cell cache, the supervisor and
    ``--obs`` all apply.

    ``cell`` is the module-level cell function, called as
    ``cell(cfg=config)``; ``None`` means :func:`run_cell`.  A harness
    that reads a statistic ``run_cell`` does not ship passes its own,
    which calls :func:`run_experiment` and returns a ``"makespan"`` key
    (what :func:`makespans` reads) next to that statistic.
    """
    fn = run_cell if cell is None else cell
    cells = {
        cfg: Cell(cfg, fn, {"cfg": cfg})
        for grid in grids for modes in grid.values() for cfg in modes.values()
    }
    return require_ok(run_cells(cells.values(), jobs=jobs), context=context)


def makespans(modes: Mapping[str, GangConfig],
              results: Mapping[GangConfig, dict]) -> dict[str, float]:
    """``{mode: makespan}`` for one case of a :func:`run_grids` result."""
    return {mode: results[cfg]["makespan"] for mode, cfg in modes.items()}


def paging_record(mk: Mapping[str, float]) -> dict:
    """Completion times, switching overheads and paging reduction of
    ``so/ao/ai/bg`` over ``lru``, from one case's :func:`makespans`."""
    batch, lru, full = mk["batch"], mk["lru"], mk["so/ao/ai/bg"]
    return {
        "batch_s": batch,
        "lru_s": lru,
        "adaptive_s": full,
        "overhead_lru": overhead_fraction(lru, batch),
        "overhead_adaptive": overhead_fraction(full, batch),
        "reduction": paging_reduction(lru, full, batch),
    }


__all__ = ["GangConfig", "RunResult", "makespans", "mode_configs",
           "paging_record", "run_cell", "run_experiment", "run_grids"]
