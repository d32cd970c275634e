"""Persistent warm-worker executor with work stealing.

A pool built fresh per sweep makes every worker re-import the whole
simulation stack and every cell re-pickle its full payload; the
BENCH_PR2 result — parallel *slower* than serial at 0.74× — was the
bill.  :class:`PersistentExecutor` amortises all of it:

* **Warm workers.**  Worker processes are spawned once (forkserver
  start method where available, so respawns fork from an interpreter
  that already imported ``repro``), pre-warm the hot modules
  (:func:`repro.perf.worker.prewarm`), and serve every subsequent
  sweep of the process.  A module-level default executor
  (:func:`get_default_executor`) is shared by bare
  :func:`~repro.perf.pool.run_cells` sweeps and the supervisor and
  shut down atexit.
* **Compact dispatch.**  A sweep begins by shipping one
  :class:`SpecTable` — every cell pickled once — inline in the sweep
  message; after that each task message is a ``(generation, index,
  attempt, fingerprint)`` descriptor and each worker unpickles its
  cell from the table.
* **Sweep generations.**  Every sweep gets a generation number carried
  in task and result messages, so results of an abandoned sweep (the
  bare path fails fast on the first cell error) are recognised and
  dropped instead of corrupting the next sweep.
* **Surgical failure handling.**  A dead worker is one ``died`` event
  naming the task it held; callers respawn *one* worker
  (:meth:`PersistentExecutor.respawn`) instead of rebuilding the
  world, and a hung worker is killed alone
  (:meth:`PersistentExecutor.kill_worker`) while its siblings keep
  computing.

Work stealing
-------------
:class:`StealScheduler` holds one deque per worker.  The initial
assignment is greedy LPT: cells sorted largest-estimated-cost-first
(per-key EMA estimates from the PR 6 supervisor when available) and
dealt to the least-loaded deque, ties broken by index so the schedule
is deterministic for a given cost model.  A worker pops from the head
of its own deque; an idle worker with an empty deque **steals from the
tail** of the most-loaded victim — the tail holds the smallest
remaining items under LPT order, so a steal never takes the victim's
next big cell.  Completion order therefore varies run to run, which is
exactly why the merge is keyed by cell index: the caller writes
``results[index]`` and declaration-order byte identity is preserved
no matter who ran what (enforced by
``tests/perf/test_stealing_equivalence.py``).
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

_CTX = None

#: pickle protocol of the spec table entries
_PROTOCOL = 5


def start_method() -> str:
    """The worker start method: forkserver where available, else spawn.

    ``fork`` is never chosen: a forked worker inherits arbitrary parent
    state (open files, half-warmed caches), while forkserver children
    fork from a clean pre-warmed interpreter and spawn children import
    from scratch.
    """
    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    return "forkserver" if "forkserver" in methods else "spawn"


def _ensure_child_import_path() -> None:
    """Make ``repro`` importable in spawn/forkserver children.

    Children re-import from ``PYTHONPATH``, not from the parent's
    runtime ``sys.path`` edits (harness scripts insert ``src/``
    manually).  Exporting the package root before the first spawn
    keeps the executor working however the parent found ``repro``.
    """
    import repro

    root = str(Path(repro.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH", "")
    parts = existing.split(os.pathsep) if existing else []
    if root not in parts:
        os.environ["PYTHONPATH"] = (
            os.pathsep.join([root] + parts) if parts else root)


def _mp_context():
    """Process-wide multiprocessing context (created once)."""
    global _CTX
    if _CTX is None:
        import multiprocessing as mp

        _ensure_child_import_path()
        method = start_method()
        ctx = mp.get_context(method)
        if method == "forkserver":
            try:
                # the server imports repro once; every worker (and
                # every respawn) forks from that warm interpreter
                ctx.set_forkserver_preload(["repro.perf.worker"])
            except Exception:  # pragma: no cover - defensive
                pass
        _CTX = ctx
    return _CTX


@dataclass
class WorkerEvent:
    """One observation from :meth:`PersistentExecutor.poll`."""

    kind: str  #: ``"result"`` or ``"died"``
    wid: int
    gen: int = -1
    index: int = -1
    attempt: int = -1
    fp: str = ""
    ok: bool = False
    payload: Any = None  #: result object, or the raised exception
    exitcode: Optional[int] = None


class SpecTable:
    """One sweep's cells, each pickled once as ``(key, fn, kwargs)``.

    Built once per sweep from the declaration-ordered cell list; the
    tuple of pickles rides in the sweep message and a worker rebuilds
    cell ``i`` with ``pickle.loads(blobs[i])``.
    """

    def __init__(self, cells: Sequence) -> None:
        self.blobs = tuple(
            pickle.dumps((c.key, c.fn, c.kwargs), protocol=_PROTOCOL)
            for c in cells)

    @property
    def nbytes(self) -> int:
        return sum(map(len, self.blobs))


class _Worker:
    """Parent-side handle of one persistent worker process."""

    __slots__ = ("wid", "proc", "conn", "gen", "task")

    def __init__(self, wid, proc, conn) -> None:
        self.wid = wid
        self.proc = proc
        self.conn = conn
        #: sweep generation this worker is enrolled in (-1 = none)
        self.gen = -1
        #: in-flight (gen, index, attempt, fp), or None when idle
        self.task: Optional[tuple] = None


class StealScheduler:
    """Per-worker deques with LPT assignment and tail stealing."""

    def __init__(self, wids: Sequence[int],
                 cost: Optional[Callable[[int], float]] = None) -> None:
        self._deques: dict[int, deque] = {w: deque() for w in wids}
        self._load: dict[int, float] = {w: 0.0 for w in wids}
        self._cost = cost
        self.steals = 0

    def _item_cost(self, index: int) -> float:
        if self._cost is None:
            return 1.0
        return max(float(self._cost(index)), 0.0) or 1.0

    def add_worker(self, wid: int) -> None:
        self._deques.setdefault(wid, deque())
        self._load.setdefault(wid, 0.0)

    def replace_worker(self, old: int, new: int) -> None:
        """Hand a dead worker's queue to its replacement."""
        self.add_worker(new)
        dead = self._deques.pop(old, None)
        load = self._load.pop(old, 0.0)
        if dead:
            self._deques[new].extend(dead)
            self._load[new] += load

    def extend(self, indices: Sequence[int]) -> None:
        """Assign a batch greedily: largest cost first, least-loaded
        deque next, ties broken by worker id (deterministic)."""
        order = sorted(indices,
                       key=lambda i: (-self._item_cost(i), i))
        for index in order:
            wid = min(self._load, key=lambda w: (self._load[w], w))
            self._deques[wid].append(index)
            self._load[wid] += self._item_cost(index)

    def push_front(self, index: int) -> None:
        """Queue a retry at the head of the least-loaded deque."""
        wid = min(self._load, key=lambda w: (self._load[w], w))
        self._deques[wid].appendleft(index)
        self._load[wid] += self._item_cost(index)

    def next_for(self, wid: int) -> Optional[int]:
        """Next cell for ``wid``: own head, else steal a victim's tail."""
        own = self._deques.get(wid)
        if own is None:
            self.add_worker(wid)
            own = self._deques[wid]
        if own:
            index = own.popleft()
            self._load[wid] -= self._item_cost(index)
            return index
        victim = max(
            (w for w, dq in self._deques.items() if dq),
            key=lambda w: (self._load[w], -w),
            default=None,
        )
        if victim is None:
            return None
        index = self._deques[victim].pop()
        self._load[victim] -= self._item_cost(index)
        self.steals += 1
        return index

    def __len__(self) -> int:
        return sum(len(dq) for dq in self._deques.values())


class PersistentExecutor:
    """Long-lived worker pool serving many sweeps (see module docs)."""

    _STATS = ("spawns", "respawns", "sweeps", "dispatches",
              "stale_results", "spec_bytes")

    def __init__(self, ctx=None, obs=None) -> None:
        if obs is None:
            from repro.obs import get_default

            obs = get_default()
        self._ctx = ctx
        self._workers: dict[int, _Worker] = {}
        self._next_wid = 0
        self._gen = 0
        self._sweep_msg: Optional[tuple] = None
        self.stats: dict[str, int] = {k: 0 for k in self._STATS}
        self._counters = {
            k: obs.counter(f"persistent_{k}") for k in self._STATS
        }

    def _count(self, key: str, n: int = 1) -> None:
        self.stats[key] += n
        self._counters[key].inc(n)

    # -- worker lifecycle --------------------------------------------------
    def _context(self):
        if self._ctx is None:
            self._ctx = _mp_context()
        return self._ctx

    def _spawn(self) -> _Worker:
        ctx = self._context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        wid = self._next_wid
        self._next_wid += 1
        from repro.perf.worker import worker_main

        proc = ctx.Process(target=worker_main, args=(child_conn, wid),
                           name=f"repro-sweep-worker-{wid}",
                           daemon=True)
        proc.start()
        child_conn.close()
        worker = _Worker(wid, proc, parent_conn)
        self._workers[wid] = worker
        self._count("spawns")
        return worker

    def _reap(self, wid: int) -> None:
        worker = self._workers.pop(wid, None)
        if worker is None:
            return
        try:
            worker.conn.close()
        except Exception:  # pragma: no cover - defensive
            pass
        worker.proc.join(timeout=0)

    def worker_ids(self) -> list[int]:
        return sorted(self._workers)

    def worker_pids(self) -> dict[int, int]:
        """Live worker pids (stable across sweeps = warm reuse)."""
        return {w.wid: w.proc.pid for w in self._workers.values()}

    def _prune_dead(self) -> None:
        for wid in [w.wid for w in self._workers.values()
                    if not w.proc.is_alive()]:
            self._reap(wid)

    def acquire(self, n: int) -> list[int]:
        """``n`` idle workers for a new sweep, spawning as needed.

        Workers still draining an abandoned sweep's task are left
        alone (their eventual results are dropped by generation);
        fresh workers are spawned to make up the difference, so an
        aborted sweep can never deadlock the next one.
        """
        self._prune_dead()
        idle = [w.wid for w in self._workers.values() if w.task is None]
        idle.sort()
        while len(idle) < n:
            idle.append(self._spawn().wid)
        return idle[:n]

    # -- sweep protocol ----------------------------------------------------
    def begin_sweep(self, cells, capture: bool = False, plan=None,
                    jobs: int = 1) -> tuple[int, list[int]]:
        """Ship a new sweep's spec table; returns ``(gen, worker_ids)``."""
        if self._sweep_msg is not None:
            self.end_sweep()
        self._gen += 1
        self._count("sweeps")
        table = SpecTable(cells)
        self._count("spec_bytes", table.nbytes)
        self._sweep_msg = ("sweep", self._gen, table.blobs, capture,
                           plan)
        wids = self.acquire(max(1, jobs))
        for wid in wids:
            self._enroll(self._workers[wid])
        return self._gen, wids

    def _enroll(self, worker: _Worker) -> None:
        worker.conn.send(self._sweep_msg)
        worker.gen = self._gen

    def dispatch(self, wid: int, index: int, attempt: int,
                 fp: str = "") -> None:
        """Send one task descriptor to an enrolled idle worker."""
        worker = self._workers[wid]
        if worker.gen != self._gen:
            raise RuntimeError(
                f"worker {wid} is not enrolled in sweep {self._gen}")
        if worker.task is not None:
            raise RuntimeError(f"worker {wid} is already busy")
        worker.task = (self._gen, index, attempt, fp)
        worker.conn.send(("task", self._gen, index, attempt, fp))
        self._count("dispatches")

    def poll(self, timeout: float = 0.05) -> list[WorkerEvent]:
        """Harvest results and worker deaths (at most ``timeout`` wait).

        Results from an abandoned generation free their worker but are
        reported nowhere (counted as ``stale_results``); the death of
        a worker not enrolled in the current sweep is reaped silently.
        """
        from multiprocessing.connection import wait as mp_wait

        workers = list(self._workers.values())
        if not workers:
            return []
        by_conn = {w.conn: w for w in workers}
        by_sentinel = {w.proc.sentinel: w for w in workers}
        try:
            ready = mp_wait(list(by_conn) + list(by_sentinel),
                            timeout=timeout)
        except OSError:  # pragma: no cover - fd raced with a reap
            ready = []
        events: list[WorkerEvent] = []
        dead: list[_Worker] = []
        for obj in ready:
            worker = by_conn.get(obj)
            if worker is None:
                dead.append(by_sentinel[obj])
                continue
            if not self._drain(worker, events):
                dead.append(worker)
        for worker in dead:
            if worker.wid not in self._workers:
                continue  # already handled via its other handle
            # a worker may exit cleanly after sending its last result:
            # drain whatever is buffered before declaring it dead
            self._drain(worker, events)
            exitcode = worker.proc.exitcode
            task = worker.task
            gen = worker.gen
            self._reap(worker.wid)
            if task is not None and task[0] == self._gen:
                events.append(WorkerEvent(
                    "died", worker.wid, gen=task[0], index=task[1],
                    attempt=task[2], fp=task[3], exitcode=exitcode))
            elif gen == self._gen and self._sweep_msg is not None:
                # an idle-but-enrolled worker died: report it so the
                # caller stops offering it work (index -1 = no cell
                # was lost)
                events.append(WorkerEvent("died", worker.wid, gen=gen,
                                          exitcode=exitcode))
        return events

    def _drain(self, worker: _Worker, events: list[WorkerEvent]) -> bool:
        """Pump buffered messages from one worker; False if it hung up."""
        try:
            while worker.conn.poll():
                msg = worker.conn.recv()
                if msg[0] == "ready":
                    continue
                if msg[0] == "result":
                    _, wid, gen, index, attempt, fp, ok, payload = msg
                    worker.task = None
                    if gen == self._gen:
                        events.append(WorkerEvent(
                            "result", wid, gen=gen, index=index,
                            attempt=attempt, fp=fp, ok=ok,
                            payload=payload))
                    else:
                        self._count("stale_results")
        except (EOFError, OSError):
            return False
        return True

    def kill_worker(self, wid: int) -> None:
        """Hard-kill one (hung) worker; no ``died`` event will follow."""
        worker = self._workers.get(wid)
        if worker is None:
            return
        try:
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
        except Exception:  # pragma: no cover - defensive
            pass
        self._reap(wid)

    def respawn(self) -> int:
        """Spawn one replacement worker enrolled in the current sweep."""
        worker = self._spawn()
        self._count("respawns")
        if self._sweep_msg is not None:
            self._enroll(worker)
        return worker.wid

    def end_sweep(self) -> None:
        """Tell the current sweep's workers to drop its spec table."""
        if self._sweep_msg is not None:
            gen = self._sweep_msg[1]
            self._sweep_msg = None
            for worker in self._workers.values():
                if worker.gen != gen:
                    continue
                try:
                    worker.conn.send(("end_sweep", gen))
                except (OSError, BrokenPipeError):
                    pass  # dead worker: reaped on the next poll

    # -- shutdown ----------------------------------------------------------
    def close(self, timeout: float = 1.0) -> None:
        """Stop every worker (graceful, then the axe)."""
        self.end_sweep()
        for worker in list(self._workers.values()):
            try:
                worker.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        deadline = time.monotonic() + timeout
        for worker in list(self._workers.values()):
            worker.proc.join(timeout=max(0.0,
                                         deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=1.0)
            self._reap(worker.wid)

    def __enter__(self) -> "PersistentExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_default_executor: Optional[PersistentExecutor] = None


def get_default_executor() -> PersistentExecutor:
    """The process-wide warm executor (created on first use).

    Shared by every parallel sweep of the process — this
    sharing *is* the optimisation: workers spawned for the first sweep
    stay warm for every later one.  Shut down atexit (workers are
    daemonic besides, so even a hard parent death leaks nothing).
    """
    global _default_executor
    if _default_executor is None:
        _default_executor = PersistentExecutor()
    return _default_executor


def peek_default_executor() -> Optional[PersistentExecutor]:
    """The default executor if one was ever created (no side effects)."""
    return _default_executor


def shutdown_default_executor() -> None:
    """Tear down the process-default executor (atexit / tests)."""
    global _default_executor
    if _default_executor is not None:
        _default_executor.close()
        _default_executor = None


atexit.register(shutdown_default_executor)


__all__ = [
    "PersistentExecutor",
    "SpecTable",
    "StealScheduler",
    "WorkerEvent",
    "get_default_executor",
    "peek_default_executor",
    "shutdown_default_executor",
    "start_method",
]
