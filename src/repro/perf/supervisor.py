"""Supervised sweep execution: retries, deadlines, respawns, quarantine,
checkpoint/resume.

A bare parallel :func:`repro.perf.pool.run_cells` sweep runs on this
module's loop with no retries, no deadline, no journal and no
telemetry, and re-raises the earliest-declared failure once every cell
has settled (:class:`repro.perf.backend.PersistentBackend`).  With its
policy switched on, :class:`Supervisor` gives the same cell model
production traffic semantics — the host-layer mirror of what
:mod:`repro.faults` did for the *simulated* system in PR 1:

* **Deadlines.**  Every in-flight cell gets a wall-clock deadline
  derived from a running (exponential moving average) estimate of cell
  cost, clamped to :data:`TIMEOUT_FLOOR_S`/:data:`TIMEOUT_CAP_S` — or
  a fixed ``cell_timeout_s``.  A cell that overruns gets one grace extension
  (mirroring the gang scheduler's straggler quantum extension), then is
  treated as hung: its worker alone is killed and the cell is
  rescheduled.
* **Retries.**  A failed attempt (worker crash, in-cell exception,
  deadline kill) is retried with exponential backoff, up to
  ``max_retries`` re-executions.  Cells are pure functions of their
  kwargs and every attempt goes through the same
  :func:`~repro.perf.pool._execute` global-state reset, so a retry is
  re-seeded-identical: a surviving attempt produces the same bytes the
  first attempt would have.
* **Respawns.**  A worker death loses exactly the cell that worker
  held: one replacement worker is spawned, the cell is charged one
  attempt and requeued, and the surviving workers never notice.
* **Quarantine.**  A cell that fails ``max_retries + 1`` attempts is
  *blacklisted* — borrowing the idea from the Blacklisting Memory
  Scheduler: misbehaving streams are isolated rather than allowed to
  stall everyone.  Its slot in the merged record becomes
  ``{"_failed": {...}}`` (exception text, attempt count, per-attempt
  timings) and the rest of the sweep completes normally.  ``"_failed"``
  is a reserved key like ``"_perf"``: excluded from identity
  guarantees, never produced by healthy runs.
* **Checkpoint/resume.**  With journaling on, every settled cell is
  recorded in ``results/.sweepjournal/<sweep_id>.jsonl``
  (:mod:`repro.perf.journal`) and its result stored in a
  content-addressed cell store — the process
  :class:`~repro.perf.cache.CellCache` when one is active, otherwise a
  journal-scoped store.  A later run with ``resume=True`` re-executes
  only the cells the journal does not mark done, and merges to the
  byte-identical record an uninterrupted run would have produced
  (outside the ``"_perf"`` quarantine, where served cells are
  annotated).

Determinism
-----------
The merge remains in declaration order and every cell result is a pure
function of its kwargs, so a supervised sweep — even one that suffered
injected crashes, hangs and respawns — merges to the same bytes as a
plain serial ``run_cells`` (enforced by
``tests/perf/test_supervisor.py``).  Host fault injection for tests and
the chaos benchmark comes from
:class:`~repro.faults.worker.WorkerFaultPlan`.

Telemetry: ``supervisor_*`` counters (``completed``, ``retries``,
``respawns``, ``timeouts``, ``deadline_extensions``, ``quarantined``,
``resumed``) flow through the :mod:`repro.obs` registry, and the same
values are always available on :attr:`Supervisor.stats`.  PR 8 adds
two richer channels: :attr:`Supervisor.events` is a
:class:`repro.obs.sweep.SweepEventLog` recording every supervision
decision (retry, grace extension, hung-kill, worker respawn,
quarantine, …) correlated by cell key + attempt — mirrored to
``<sweep_id>.events.jsonl`` next to the journal when journaling is on
— and a :class:`repro.obs.sweep.ProgressTicker` renders live
done/running/quarantined + ETA (from the EMA cost estimate) to stderr
during long sweeps (TTY only).

Mirroring the cache and obs subsystems, a process-default supervisor
installed with :func:`set_default_supervisor` is picked up by
:func:`repro.perf.pool.run_cells` — this is how the CLI's
``--max-retries`` / ``--cell-timeout`` / ``--resume`` flags reach every
sweep experiment without threading a parameter through each harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Hashable, Optional

from repro.faults.worker import WorkerFaultPlan
from repro.obs.sweep import ProgressTicker, SweepEventLog, cell_label
from repro.perf.journal import DEFAULT_JOURNAL_DIR, SweepJournal, sweep_id
from repro.perf.pool import Cell, _check_cells

#: reserved key marking a quarantined cell in the merged record
FAILED_KEY = "_failed"

#: adaptive deadline = clamp(TIMEOUT_MULTIPLIER * estimate, floor, cap)
TIMEOUT_FLOOR_S = 2.0
TIMEOUT_CAP_S = 900.0
TIMEOUT_MULTIPLIER = 8.0
#: one grace extension of ``GRACE_FACTOR * budget`` before a cell is
#: declared hung (the straggler gets a second chance first)
GRACE_FACTOR = 0.5
#: exponential retry backoff: base * factor**(attempt-1), capped
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 2.0
#: watchdog poll period (host wall clock)
POLL_INTERVAL_S = 0.05


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy for one sweep."""

    #: re-executions allowed per cell after its first failed attempt
    max_retries: int = 3
    #: fixed per-cell deadline; ``None`` = adaptive from the running
    #: cost estimate (the cap alone until the first cell completes)
    cell_timeout_s: Optional[float] = None
    #: record settled cells in the sweep journal
    journal: bool = False
    #: where journals (and journal-scoped result stores) live
    journal_dir: str | Path = DEFAULT_JOURNAL_DIR
    #: skip cells a previous journal marks done (implies journaling)
    resume: bool = False
    #: host fault injection (tests / hidden ``--chaos`` flag only)
    worker_faults: Optional[WorkerFaultPlan] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ValueError("cell_timeout_s must be positive when set")

    @property
    def journaling(self) -> bool:
        return self.journal or self.resume


class _CellState:
    """Supervision bookkeeping for one incomplete cell."""

    __slots__ = ("index", "cell", "fp", "attempts", "timeout_kills",
                 "errors", "excs", "timings", "ready_at", "submitted_at",
                 "budget", "deadline", "extended")

    def __init__(self, index: int, cell: Cell, fp: str) -> None:
        self.index = index
        self.cell = cell
        self.fp = fp
        #: failed attempts so far
        self.attempts = 0
        #: attempts killed by the deadline watchdog (drives escalation)
        self.timeout_kills = 0
        #: one message per failed attempt, and its exception object
        #: (``RuntimeError(message)`` when the supervisor failed it)
        self.errors: list[str] = []
        self.excs: list[BaseException] = []
        #: wall seconds of every attempt (failed and successful)
        self.timings: list[float] = []
        #: earliest host time the next attempt may be submitted
        self.ready_at = 0.0
        self.submitted_at = 0.0
        #: deadline budget for the in-flight attempt (None = disarmed)
        self.budget: Optional[float] = None
        self.deadline: Optional[float] = None
        #: grace extension already granted to the in-flight attempt
        self.extended = False


class _SweepBook:
    """Bookkeeping for one supervised sweep.

    The supervision loop (:meth:`Supervisor._run_persistent`) settles
    every attempt through :meth:`settle_success` or
    :meth:`settle_failure`, which own retries, backoff, quarantine,
    journaling and the result-store contract.
    """

    def __init__(self, sup: "Supervisor", cells, results, todo,
                 prints=None, cache=None, store=None, journal=None,
                 journaled=None) -> None:
        self.sup = sup
        self.results = results
        self.cache = cache
        self.store = store
        self.journal = journal
        self.journaled = journaled
        # fingerprints exist only when a cache or journal needs them
        self.states = {i: _CellState(i, cells[i],
                                     prints[i] if prints else "")
                       for i in todo}
        #: cells awaiting (re)submission, possibly backing off
        self.waiting: list[int] = list(todo)
        #: cells settled for good this run
        self.done = 0
        self.quar = 0
        #: live-progress hook (set by the driving loop)
        self.ticker: Optional[ProgressTicker] = None

    @property
    def open_cells(self) -> int:
        """Cells not yet settled (neither completed nor quarantined)."""
        return len(self.states) - self.done - self.quar

    def settle_success(self, st: _CellState, result) -> None:
        sup = self.sup
        wall = time.monotonic() - st.submitted_at
        st.timings.append(wall)
        sup._observe(wall, key=repr(st.cell.key))
        self.results[st.index] = result
        sup._count("completed")
        sup.events.log("cell_done", key=st.cell.key,
                       attempt=st.attempts + 1, wall_s=wall)
        self.done += 1
        if isinstance(result, dict) and self.ticker is not None:
            ev = result.get("events_dispatched")
            if isinstance(ev, (int, float)):
                self.ticker.add_events(ev)
        if self.cache is not None:
            self.cache.put(st.fp, result, label=cell_label(st.cell.key))
        if self.store is not None and self.store is not self.cache:
            self.store.put(st.fp, result, label=cell_label(st.cell.key))
        if self.journal is not None and st.fp not in self.journaled:
            self.journal.record_done(st.fp, cell_label(st.cell.key),
                                     attempts=st.attempts + 1,
                                     wall_s=wall)
            self.journaled.add(st.fp)

    def settle_failure(self, st: _CellState, error: str,
                       exc: Optional[BaseException] = None,
                       charge: bool = True) -> None:
        """Record a failed attempt; requeue or quarantine."""
        sup = self.sup
        if charge:
            st.attempts += 1
            st.errors.append(error)
            st.excs.append(exc if exc is not None else RuntimeError(error))
            st.timings.append(time.monotonic() - st.submitted_at)
        if not charge or st.attempts <= sup.config.max_retries:
            if charge:
                sup._count("retries")
                backoff = min(
                    BACKOFF_MAX_S,
                    BACKOFF_BASE_S * BACKOFF_FACTOR ** (st.attempts - 1),
                )
                st.ready_at = time.monotonic() + backoff
                sup.events.log("retry", key=st.cell.key,
                               attempt=st.attempts, error=error,
                               backoff_s=backoff)
            else:
                sup.events.log("requeued", key=st.cell.key,
                               attempt=st.attempts)
            self.waiting.append(st.index)
            return
        # poison cell: blacklist it into the merged record so the
        # rest of the sweep survives
        sup._count("quarantined")
        sup.events.log("quarantine", key=st.cell.key,
                       attempt=st.attempts, error=st.errors[-1])
        self.quar += 1
        self.results[st.index] = {
            FAILED_KEY: {
                "key": repr(st.cell.key),
                "error": st.errors[-1],
                "errors": list(st.errors),
                "attempts": st.attempts,
                "attempt_s": list(st.timings),
            }
        }
        if self.journal is not None:
            self.journal.record_failed(st.fp, cell_label(st.cell.key),
                                       attempts=st.attempts,
                                       error=st.errors[-1])


class Supervisor:
    """Run sweep cells to completion under failures (see module docs)."""

    _STATS = ("completed", "retries", "respawns",
              "timeouts", "deadline_extensions", "quarantined",
              "resumed")

    def __init__(self, config: Optional[SupervisorConfig] = None,
                 obs=None, progress_stream=None) -> None:
        self.config = config or SupervisorConfig()
        if obs is None:
            from repro.obs import get_default

            obs = get_default()
        self.stats: dict[str, int] = {k: 0 for k in self._STATS}
        self._counters = {
            k: obs.counter(f"supervisor_{k}") for k in self._STATS
        }
        #: structured supervision event log (retries, kills, respawns,
        #: quarantines, …); mirrored to JSONL when journaling is on
        self.events = SweepEventLog()
        self._progress_stream = progress_stream
        #: running EMA of successful-attempt wall seconds
        self._estimate: Optional[float] = None
        #: per-cell-key EMA of wall seconds — feeds the work-stealing
        #: scheduler's largest-cost-first initial assignment
        self._estimates: dict[str, float] = {}

    # -- counters ----------------------------------------------------------
    def _count(self, key: str, n: int = 1) -> None:
        self.stats[key] += n
        self._counters[key].inc(n)

    # -- public API --------------------------------------------------------
    def run(self, cells, jobs: int = 1, cache=None,
            capture: bool = False) -> dict[Hashable, Any]:
        """Run ``cells`` under supervision; returns ``{key: result}``.

        Same contract as :func:`repro.perf.pool.run_cells` — results
        merge in declaration order for any ``jobs`` — except that
        quarantined cells yield ``{"_failed": {...}}`` instead of
        raising, and (with journaling) completed cells survive a dead
        process.  Unlike plain ``run_cells``, *every* execution happens
        in a persistent worker process (``jobs=1`` supervises a single
        worker): isolation is what makes crash containment and
        hung-worker cancellation possible at all.

        ``capture`` is the worker telemetry-capture flag (see
        :func:`repro.perf.pool._execute`).
        """
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        cells = list(cells)
        keys = _check_cells(cells)

        from repro.perf.cache import CellCache, fingerprint, \
            get_default_cache

        if cache is None:
            cache = get_default_cache()
        prints = None
        if cache is not None or self.config.journaling:
            prints = [fingerprint(c.fn, c.kwargs) for c in cells]

        results: list[Any] = [None] * len(cells)
        settled = [False] * len(cells)

        journal = store = None
        journaled: set[str] = set()
        if self.config.journaling:
            journal = SweepJournal(sweep_id(prints),
                                   root=self.config.journal_dir)
            self.events.attach(Path(self.config.journal_dir)
                               / f"{journal.sweep}.events.jsonl")
            # the result store backing resume: the active cache when
            # there is one (composition, not duplication), otherwise a
            # journal-scoped content-addressed store
            store = cache if cache is not None else CellCache(
                root=Path(self.config.journal_dir)
                / f"{journal.sweep}.store"
            )
            done_before = journal.completed()
            journaled = set(done_before)
            if self.config.resume and done_before:
                for i, fp in enumerate(prints):
                    if fp not in done_before:
                        continue
                    hit = store.get(fp)
                    if hit is not None:
                        results[i] = hit
                        settled[i] = True
                        self._count("resumed")
                        self.events.log("resumed", key=cells[i].key)
                    # a done entry whose stored result vanished simply
                    # re-executes — the journal is an index, the store
                    # is the source of truth

        # cache pre-pass, as in run_cells; hits are journaled too so a
        # resume does not depend on the cache staying warm elsewhere
        if cache is not None:
            for i, cell in enumerate(cells):
                if settled[i]:
                    continue
                hit = cache.get(prints[i])
                if hit is not None:
                    results[i] = hit
                    settled[i] = True
                    if journal is not None and prints[i] not in journaled:
                        journal.record_done(prints[i], cell_label(cell.key),
                                            attempts=0, wall_s=0.0)
                        journaled.add(prints[i])

        todo = [i for i in range(len(cells)) if not settled[i]]
        self.events.log("sweep_begin", cells=len(cells), jobs=jobs,
                        todo=len(todo))
        try:
            if todo:
                book = _SweepBook(self, cells, results, todo, prints,
                                  cache, store, journal, journaled)
                self._run_persistent(book, cells, jobs, capture)
        finally:
            if journal is not None:
                journal.close()
            self.events.close_file()
        return dict(zip(keys, results))

    # -- persistent-executor loop ------------------------------------------
    def _run_persistent(self, book: _SweepBook, cells, jobs: int,
                        capture: bool) -> None:
        """Drive one sweep on the persistent warm-worker executor.

        This is the only loop that dispatches to and polls the
        executor; bare parallel sweeps run it too, with no retries and
        no deadline (:class:`repro.perf.backend.PersistentBackend`).
        A worker crash loses exactly the cell that worker held and is
        answered by respawning *one* worker (``respawns`` stat,
        ``worker_respawn`` event) — the surviving workers never notice.
        A hung cell gets one grace extension, then the kill hits only
        its own worker.  Dispatch order comes from the work-stealing
        scheduler, seeded largest-EMA-cost-first from the per-key
        estimates; retries, backoff, quarantine and journaling go
        through the sweep book.
        """
        from repro.perf.persistent import (StealScheduler,
                                           get_default_executor)

        states = book.states
        executor = get_default_executor()
        gen, wids = executor.begin_sweep(
            cells, capture=capture, plan=self.config.worker_faults,
            jobs=min(jobs, len(states)))
        sched = StealScheduler(
            wids, cost=lambda i: self._cost_hint(cells[i]))
        inflight: dict[int, _CellState] = {}
        idle = set(wids)
        done0 = len(book.results) - len(states)
        ticker = ProgressTicker(total=len(book.results), done=done0,
                                stream=self._progress_stream)
        book.ticker = ticker
        self.events.log("persistent_begin", workers=len(wids),
                        gen=gen)

        def respawn(cause: str, wid: int, exitcode=None) -> None:
            self._count("respawns")
            new_wid = executor.respawn()
            sched.replace_worker(wid, new_wid)
            idle.discard(wid)
            idle.add(new_wid)
            self.events.log("worker_respawn", cause=cause,
                            exit=exitcode)

        try:
            while book.open_cells:
                now = time.monotonic()
                # feed cells whose backoff has elapsed to the
                # scheduler in one batch, so the LPT assignment sees
                # them together
                ready = [i for i in book.waiting
                         if states[i].ready_at <= now]
                if ready:
                    gone = set(ready)
                    book.waiting = [i for i in book.waiting
                                    if i not in gone]
                    sched.extend(ready)

                for wid in sorted(idle):
                    index = sched.next_for(wid)
                    if index is None:
                        break
                    st = states[index]
                    st.submitted_at = time.monotonic()
                    st.budget, st.deadline = self._deadline(st)
                    st.extended = False
                    try:
                        executor.dispatch(wid, index, st.attempts)
                    except (KeyError, RuntimeError, OSError):
                        # raced a worker death: requeue uncharged;
                        # the death itself surfaces via poll below
                        idle.discard(wid)
                        book.settle_failure(
                            st, "worker lost before dispatch",
                            charge=False)
                        continue
                    inflight[wid] = st
                    idle.discard(wid)

                for ev in executor.poll(POLL_INTERVAL_S):
                    if ev.kind == "result":
                        st = inflight.pop(ev.wid, None)
                        idle.add(ev.wid)
                        if st is None or ev.index != st.index:
                            continue  # defensive: not this sweep's
                        if ev.ok:
                            book.settle_success(st, ev.payload)
                        else:
                            exc = ev.payload
                            book.settle_failure(
                                st, f"{type(exc).__name__}: {exc}", exc)
                    elif ev.kind == "died":
                        st = inflight.pop(ev.wid, None)
                        respawn("worker_crash", ev.wid, ev.exitcode)
                        if st is not None:
                            book.settle_failure(
                                st,
                                f"worker crashed (exit {ev.exitcode}) "
                                f"while running cell {st.index} "
                                f"{st.cell.key!r}")

                # deadline watchdog: grace once, then kill just the
                # one hung worker
                now = time.monotonic()
                for wid, st in [(w, s) for w, s in inflight.items()
                                if s.deadline is not None
                                and now > s.deadline]:
                    if not st.extended and GRACE_FACTOR > 0.0:
                        st.extended = True
                        st.deadline = now + GRACE_FACTOR * st.budget
                        self._count("deadline_extensions")
                        self.events.log(
                            "grace_extension", key=st.cell.key,
                            attempt=st.attempts,
                            extra_s=GRACE_FACTOR * st.budget)
                        continue
                    self._count("timeouts")
                    st.timeout_kills += 1
                    self.events.log(
                        "hung_kill", key=st.cell.key,
                        attempt=st.attempts,
                        elapsed_s=time.monotonic() - st.submitted_at,
                        budget_s=st.budget)
                    executor.kill_worker(wid)
                    inflight.pop(wid, None)
                    respawn("hung_worker", wid)
                    book.settle_failure(
                        st,
                        f"deadline exceeded "
                        f"({time.monotonic() - st.submitted_at:.2f}s"
                        f" > budget {st.budget:.2f}s)",
                    )

                remaining = book.open_cells
                eta = None
                if self._estimate is not None and remaining > 0:
                    eta = remaining * self._estimate / max(
                        1, len(idle) + len(inflight))
                ticker.update(done=done0 + book.done,
                              running=len(inflight),
                              quarantined=book.quar, eta_s=eta)
        finally:
            ticker.close()
            executor.end_sweep()

    # -- deadline policy ---------------------------------------------------
    def _observe(self, wall_s: float,
                 key: Optional[str] = None) -> None:
        """Fold one successful attempt into the running cost estimates
        (global, and per cell key when given)."""
        if self._estimate is None:
            self._estimate = wall_s
        else:
            self._estimate = 0.7 * self._estimate + 0.3 * wall_s
        if key is not None:
            prev = self._estimates.get(key)
            self._estimates[key] = wall_s if prev is None \
                else 0.7 * prev + 0.3 * wall_s

    def _cost_hint(self, cell: Cell) -> float:
        """Scheduler cost estimate for one cell: per-key EMA, else the
        global EMA, else 0 (unknown; scheduler treats all equally)."""
        est = self._estimates.get(repr(cell.key))
        if est is None:
            est = self._estimate
        return est if est is not None else 0.0

    def _deadline(self, st: _CellState
                  ) -> tuple[Optional[float], Optional[float]]:
        """(budget, absolute deadline) for the attempt just submitted.

        Adaptive budgets clamp ``TIMEOUT_MULTIPLIER * estimate`` to
        ``[TIMEOUT_FLOOR_S, TIMEOUT_CAP_S]``; before any cell has
        completed the cap itself is the budget, so even a hang in the
        very first batch is eventually cancelled.  A cell the watchdog already killed gets
        its budget doubled per kill (past the cap if need be): a
        merely-slow cell converges to a budget it fits in instead of
        being killed identically on every retry and quarantined as a
        false positive — a real hang still dies, just later.
        """
        if self.config.cell_timeout_s is not None:
            budget = self.config.cell_timeout_s
        elif self._estimate is None:
            budget = TIMEOUT_CAP_S
        else:
            budget = min(TIMEOUT_CAP_S,
                         max(TIMEOUT_FLOOR_S,
                             TIMEOUT_MULTIPLIER * self._estimate))
        budget *= 2.0 ** st.timeout_kills
        return budget, st.submitted_at + budget


_default_supervisor: Optional[Supervisor] = None


def get_default_supervisor() -> Optional[Supervisor]:
    """The process-wide default supervisor (``None`` = unsupervised)."""
    return _default_supervisor


def set_default_supervisor(supervisor: Optional[Supervisor]) -> None:
    """Install (or with ``None`` remove) the process default supervisor."""
    global _default_supervisor
    _default_supervisor = supervisor


def quarantined(merged: dict) -> dict[Hashable, dict]:
    """The quarantined entries of a merged record: ``{key: failure}``."""
    return {
        k: v[FAILED_KEY]
        for k, v in merged.items()
        if isinstance(v, dict) and FAILED_KEY in v
    }


class QuarantinedCells(RuntimeError):
    """A sweep completed but some cells were quarantined.

    Raised by aggregators that need every cell's real result; carries
    the ``{key: failure}`` mapping so callers (and tracebacks) name
    the poisoned cells instead of dying on a ``KeyError`` deep inside
    the aggregation.
    """

    def __init__(self, failures: dict, context: str = "sweep"):
        self.failures = failures
        lines = ", ".join(
            f"{k!r}: {f.get('error', '?')} after {f.get('attempts', '?')}"
            f" attempt(s)"
            for k, f in failures.items()
        )
        super().__init__(
            f"{context}: {len(failures)} cell(s) quarantined — {lines}"
        )


def require_ok(merged: dict, context: str = "sweep") -> dict:
    """Return ``merged`` unchanged, or raise :class:`QuarantinedCells`
    if any cell carries a ``"_failed"`` quarantine entry."""
    failures = quarantined(merged)
    if failures:
        raise QuarantinedCells(failures, context)
    return merged


__all__ = [
    "FAILED_KEY",
    "QuarantinedCells",
    "Supervisor",
    "SupervisorConfig",
    "get_default_supervisor",
    "quarantined",
    "require_ok",
    "set_default_supervisor",
]
