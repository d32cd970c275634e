"""The benchmark's workloads, their fingerprints and their host costs.

Each workload is pinned by a :class:`~repro.experiments.GangConfig` and
a seed.  The two single-cell workloads stress opposite execution paths
of one simulation:

* ``fig6_lru`` is the cell behind every historical fig6 number.  Only
  894 of its 45 342 events are dispatched; the rest are absorbed by the
  batch-advance tier, so victim selection, ``VMM.touch``, read-ahead
  planning and eager disk runs do the work and the engine does little.
* ``npb_full_adaptive`` is the paper's operating point (LU class C on
  four nodes under ``so/ao/ai/bg`` at full size).  61 272 of its 62 552
  events are dispatched one by one, so engine dispatch, process bodies,
  ``evict_batch`` and ``Disk.submit`` dominate and read-ahead is nil.

A gain on one therefore shows its cost on the other.  ``sweep_cg_auto``
is the only workload that drives the sweep executor (``repro.perf``):
36 small CG cells (batch, lru and ``so/ao/ai/bg`` for 12 seeds) fanned
across ``--jobs auto`` persistent workers, small enough for fan-out cost
to show.  CG is used because its paging reduction varies by seed while
LU's does not.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import resource
import time
from dataclasses import replace

import numpy as np

from repro.experiments import multi_seed
from repro.experiments.runner import GangConfig, run_experiment
from repro.perf.backend import resolve_jobs
from repro.sim.engine import Environment

#: seeds one sweep replicates: ``seed .. seed + SWEEP_SEEDS - 1``
SWEEP_SEEDS = 12
SWEEP_POLICY = "so/ao/ai/bg"

CELL_CONFIGS = {
    "fig6_lru": GangConfig("LU", "C", nprocs=4, policy="lru", seed=1,
                           scale=0.5),
    "npb_full_adaptive": GangConfig("LU", "C", nprocs=4,
                                    policy="so/ao/ai/bg", seed=1,
                                    scale=1.0),
}
SWEEP_BASE = GangConfig("CG", "B", nprocs=1, scale=0.2)

WHY = {
    "fig6_lru": "batch-advance path: victim selection, VMM.touch, "
                "read-ahead and eager disk runs dominate; 894 of 45342 "
                "events dispatched",
    "npb_full_adaptive": "paper operating point at full scale: scalar "
                         "dispatch, process bodies, evict_batch and "
                         "Disk.submit dominate",
    "sweep_cg_auto": "36-cell CG multi-seed sweep at --jobs auto: the "
                     "only workload that drives spawn, dispatch, "
                     "polling, result shipping and merge",
}
DEFAULT_SEED = 1


def digest(obj) -> str:
    """Short stable digest of a JSON-able object (floats exact)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cell_fingerprint(res) -> dict:
    """What a single-cell run must reproduce exactly."""
    return {
        "makespan": res.makespan,
        "events_simulated": res.events_simulated,
        "pages_read": res.pages_read,
        "pages_written": res.pages_written,
        "switch_count": res.switch_count,
        "vmm_stats": digest(res.vmm_stats),
    }


def cell_summary(res) -> dict:
    """The counts a traced pass reads from a single-cell run.

    Keeps no live simulation objects, so repetitions do not pile up
    memory (a run's collector holds every paging event).
    """
    disks = [node.disk for node in res.collector.nodes]
    return {
        "events_simulated": res.events_simulated,
        "events_dispatched": res.events_dispatched,
        "switch_count": res.switch_count,
        "vmm_stats": res.vmm_stats,
        "disk_pages": sum(sum(d.total_pages.values()) for d in disks),
        "disk_requests": sum(d.total_requests for d in disks),
    }


def record_digest(record: dict) -> str:
    """Digest of one sweep cell's record outside the ``"_perf"`` key."""
    return digest({k: v for k, v in record.items() if k != "_perf"})


def cell_key(key) -> str:
    seed, mode = key
    return f"{seed}:{mode}"


# -- host measurements ----------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK")


def self_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def self_peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process (0 when gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


_REF_RNG = np.random.default_rng(0)
_REF_KEYS = _REF_RNG.integers(0, 1 << 20, size=20_000)
_REF_IDX = _REF_RNG.integers(0, 20_000, size=5_000)


def reference_s() -> float:
    """Seconds a fixed kernel of heap, dict and numpy work takes now.

    The kernel mixes the operations the simulator spends its time on
    and never changes, so its duration measures how fast the host runs
    at the moment, independent of the code under test.
    """
    t0 = time.perf_counter()
    heap: list = []
    for i in range(20_000):
        heapq.heappush(heap, (i * 7919) % 10007)
    while heap:
        heapq.heappop(heap)
    counts: dict = {}
    for i in range(20_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    for _ in range(30):
        np.unique(np.sort(_REF_KEYS)[_REF_IDX])
    return time.perf_counter() - t0


class Rep:
    """One timed repetition: host costs plus what it simulated."""

    __slots__ = ("wall_s", "cpu_s", "prints", "records")

    def __init__(self, wall_s, cpu_s, prints, records) -> None:
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        #: attempt name -> fingerprint; one attempt per simulated cell
        self.prints = prints
        #: one summary per simulated cell (sweep cells keep ``"_perf"``)
        self.records = records


class _SetupDone(Exception):
    """Raised by the patched ``Environment.run`` to end a setup probe."""


class SingleCell:
    """One simulation cell run in the benchmark process."""

    def __init__(self, name: str, seed: int) -> None:
        self.cfg = replace(CELL_CONFIGS[name], seed=seed)

    def start(self) -> float:
        return 0.0

    def stop(self) -> None:
        pass

    def worker_pids(self) -> list[int]:
        return []

    def reference(self) -> float:
        return reference_s()

    def probe_setup(self) -> None:
        """Build the cell up to its first ``Environment.run``, then stop."""
        def stop_at_run(env, until=None):
            raise _SetupDone

        original = Environment.run
        Environment.run = stop_at_run
        try:
            run_experiment(self.cfg)
        except _SetupDone:
            pass
        finally:
            Environment.run = original

    def rep(self) -> Rep:
        cpu0 = self_cpu_s()
        t0 = time.perf_counter()
        res = run_experiment(self.cfg)
        wall = time.perf_counter() - t0
        cpu = self_cpu_s() - cpu0
        return Rep(wall, cpu, {str(self.cfg.seed): cell_fingerprint(res)},
                   [cell_summary(res)])


class Sweep:
    """The multi-seed CG sweep through the default persistent executor."""

    def __init__(self, seed: int) -> None:
        self.seeds = tuple(range(seed, seed + SWEEP_SEEDS))
        self.jobs = resolve_jobs("auto")

    def start(self) -> float:
        """Spawn the workers and wait until each has served a task.

        ``acquire`` only starts the processes; a probe sweep of one
        trivial cell per worker returns once each finished importing and
        answered, which
        is what the first real sweep of a CLI invocation waits for.
        Returns the seconds this took.
        """
        from repro.perf.persistent import get_default_executor
        from repro.perf.pool import Cell, run_cells

        t0 = time.perf_counter()
        if self.jobs > 1:
            get_default_executor().acquire(self.jobs)
            run_cells([Cell(i, dict) for i in range(self.jobs)],
                      jobs=self.jobs)
        return time.perf_counter() - t0

    def stop(self) -> None:
        """Stop the workers and the multiprocessing helper processes."""
        from multiprocessing import forkserver, resource_tracker

        from repro.perf.persistent import shutdown_default_executor

        shutdown_default_executor()
        for helper in (getattr(forkserver, "_forkserver", None),
                       getattr(resource_tracker, "_resource_tracker", None)):
            stop = getattr(helper, "_stop", None)
            if stop is not None:
                stop()

    def worker_pids(self) -> list[int]:
        from repro.perf.persistent import peek_default_executor

        executor = peek_default_executor()
        return sorted(executor.worker_pids().values()) if executor else []

    def reference(self) -> float:
        """The reference kernel's mean time on every worker at once.

        The sweep keeps every CPU busy, so the host speed that matters
        is the one all workers see together.
        """
        from repro.perf.pool import Cell, run_cells

        if self.jobs == 1:
            return reference_s()
        times = run_cells([Cell(i, reference_s) for i in range(self.jobs)],
                          jobs=self.jobs)
        return sum(times.values()) / self.jobs

    def probe_setup(self) -> None:
        try:
            self.start()
        finally:
            self.stop()

    def run(self) -> dict:
        """One ``replicate`` call; returns the merged cell records."""
        merged: dict = {}
        run_cells = multi_seed.run_cells

        def keep_merged(cells, **kwargs):
            merged.update(run_cells(cells, **kwargs))
            return merged

        multi_seed.run_cells = keep_merged
        try:
            multi_seed.replicate(SWEEP_BASE, policy=SWEEP_POLICY,
                                 seeds=self.seeds, jobs=self.jobs)
        finally:
            multi_seed.run_cells = run_cells
        return merged

    def rep(self) -> Rep:
        pids = self.worker_pids()
        cpu0 = self_cpu_s() + sum(proc_cpu_s(p) for p in pids)
        t0 = time.perf_counter()
        merged = self.run()
        wall = time.perf_counter() - t0
        # workers are persistent across reps (a respawn would show up as
        # a new pid and is charged from zero)
        after = set(self.worker_pids()) | set(pids)
        cpu = self_cpu_s() + sum(proc_cpu_s(p) for p in after) - cpu0
        prints = {cell_key(k): record_digest(v) for k, v in merged.items()}
        return Rep(wall, cpu, prints, list(merged.values()))


def make(name: str, seed: int):
    """The runner object for workload ``name`` at ``seed``."""
    if name in CELL_CONFIGS:
        return SingleCell(name, seed)
    if name == "sweep_cg_auto":
        return Sweep(seed)
    raise ValueError(f"unknown workload {name!r}")


__all__ = ["CELL_CONFIGS", "DEFAULT_SEED", "Rep", "SWEEP_BASE", "SingleCell",
           "Sweep", "WHY", "cell_fingerprint", "cell_summary", "digest",
           "make", "record_digest", "reference_s"]
