"""The paging disk: request queue, head model, service times.

Service model
-------------
A request names a set of swap slots and a direction (read/write).  The
slots are grouped into maximal consecutive runs; each run costs

* a **seek + rotational latency** unless the head is already positioned
  at the run's first slot (i.e. the run continues the previous transfer),
* plus ``pages * page_transfer_time``,
* plus a fixed per-request controller overhead.

This is deliberately the simplest model that exhibits the two effects
the paper's mechanisms exploit: (1) contiguous block transfers amortise
the arm movement, and (2) interleaved page-in/page-out bursts destroy
head locality and thrash the arm (paper §2, §4 Fig. 6).

Scheduling
----------
Requests queue by ``(priority, arrival)``.  Foreground page faults use
:data:`PRIO_FOREGROUND`; the paper's §3.4 background dirty-page writer
uses :data:`PRIO_BACKGROUND` so it never delays a foreground fault that
is already queued.  Service is non-preemptive.

Within a priority level the :class:`DiskParams` ``discipline`` picks
the next request:

``fifo``   strict arrival order (used by all paper experiments),
``sstf``   shortest-seek-time-first: the request whose first slot is
           nearest the head,
``cscan``  circular elevator: requests at or above the head in
           ascending slot order, then wrap to the lowest.

A discipline only reorders *within* a priority level — a background
write never overtakes a foreground fault.  The elevators stand for the
kernel block layer's request sorting: position-aware dispatch can
recover head locality that FIFO loses when page-in and page-out
streams interleave.

A request that finds a FIFO disk idle starts service at submit.  An
idle elevator defers the first pick of its busy period by one
zero-delay event, so it chooses among every request submitted at that
instant.

Faults
------
With a :class:`~repro.faults.plan.FaultPlan` attached, each service
attempt may suffer a latency spike or a transient error.  Errors are
retried with exponential backoff up to ``max_retries`` per request,
bounded by an optional cumulative per-device ``retry_budget``; when
either is exhausted the request *fails* with a typed
:class:`~repro.faults.errors.DiskFailure` instead of silently hanging,
and whatever process awaited it sees the exception.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.faults.errors import DiskFailure
from repro.faults.plan import FaultPlan
from repro.obs.registry import NULL_OBS
from repro.sim.engine import NORMAL, URGENT, Environment, Event

#: Queue priority for demand faults and switch-time paging bursts.
PRIO_FOREGROUND = 0
#: Queue priority for the background dirty-page writer (served only when
#: no foreground request is waiting).
PRIO_BACKGROUND = 10
#: Dispatch disciplines a :class:`DiskParams` may name.
DISCIPLINES = ("fifo", "sstf", "cscan")


@dataclass(frozen=True)
class DiskParams:
    """Latency/geometry parameters of the paging device.

    Defaults approximate a circa-2003 commodity IDE disk, matching the
    era of the paper's testbed (the absolute values only set the time
    scale; every reported result is a ratio).
    """

    #: average seek time, seconds
    seek_s: float = 0.008
    #: average rotational latency, seconds (half a revolution @7200rpm)
    rotational_s: float = 0.004
    #: sustained sequential transfer rate, bytes/second
    transfer_bytes_s: float = 20e6
    #: page (and swap-slot) size in bytes
    page_bytes: int = 4096
    #: fixed per-request controller/driver overhead, seconds
    overhead_s: float = 0.0005
    #: optional distance-dependent seek component: each positioning
    #: additionally costs ``coef * sqrt(|target - head|)`` seconds
    #: (the classic a + b*sqrt(d) arm model).  0 (the default) keeps the
    #: flat-seek model used by all paper experiments; the disk-scheduling
    #: extension sets it to study elevator disciplines.
    seek_distance_coef_s: float = 0.0
    #: dispatch order within a priority level: ``"fifo"`` (arrival
    #: order, used by all paper experiments), ``"sstf"`` or ``"cscan"``
    #: (see the module docstring)
    discipline: str = "fifo"

    def __post_init__(self) -> None:
        if min(self.seek_s, self.rotational_s, self.overhead_s,
               self.seek_distance_coef_s) < 0:
            raise ValueError("latencies must be non-negative")
        if self.discipline not in DISCIPLINES:
            raise ValueError(
                f"unknown discipline {self.discipline!r}; "
                f"expected one of {DISCIPLINES}"
            )
        if self.transfer_bytes_s <= 0 or self.page_bytes <= 0:
            raise ValueError("rates and sizes must be positive")

    @property
    def page_transfer_s(self) -> float:
        """Time to stream one page once the head is positioned."""
        return self.page_bytes / self.transfer_bytes_s

    @property
    def positioning_s(self) -> float:
        """Seek plus rotational latency for one discontiguous run."""
        return self.seek_s + self.rotational_s


#: Disk of the paper's testbed era (c. 2001 commodity IDE under the
#: Linux 2.2 swap path): slower sustained transfer and a longer
#: effective seek than the :class:`DiskParams` defaults.  The
#: experiment harnesses use this so that paging costs occupy a
#: paper-like share of the five-minute quantum.
ERA_DISK = DiskParams(
    seek_s=0.012,
    rotational_s=0.004,
    transfer_bytes_s=10e6,
)


class DiskRequest(Event):
    """A queued transfer; fires (with the service time) when complete.

    Carries ``__slots__`` like every other event class: tens of
    thousands of requests per run make the per-instance dict a
    measurable allocation cost on the paging hot path.
    """

    __slots__ = (
        "disk", "slots", "op", "priority", "pid", "submitted_at",
        "cancelled", "_queued", "service_time", "seeks", "completed_at",
        "_extra_delay",
    )

    def __init__(
        self,
        disk: "Disk",
        slots: np.ndarray,
        op: str,
        priority: int,
        pid: Optional[int] = None,
    ) -> None:
        super().__init__(disk.env)
        if op not in ("read", "write"):
            raise ValueError(f"op must be 'read' or 'write', got {op!r}")
        # one conversion that always copies, so the in-place sort never
        # reorders the caller's array
        slots = np.array(slots, dtype=np.int64)
        if slots.size == 0:
            raise ValueError("empty slot list")
        slots.sort()
        self.disk = disk
        self.slots = slots
        self.op = op
        self.priority = priority
        self.pid = pid
        self.submitted_at = disk.env.now
        self.cancelled = False
        #: still sitting in the wait queue (kept by the disk's O(1)
        #: live-queue counter)
        self._queued = False
        #: filled in when serviced
        self.service_time: Optional[float] = None
        self.seeks: Optional[int] = None
        #: virtual time service finished (set on success; the fast path
        #: may deliver the completion to the waiter ``_extra_delay``
        #: later, so refault-window checks use this exact instant)
        self.completed_at: Optional[float] = None
        #: extra delay between service completion and the waiter seeing
        #: the trigger (the fused major-fault CPU charge)
        self._extra_delay = 0.0

    @property
    def npages(self) -> int:
        return int(self.slots.size)

    def cancel(self) -> bool:
        """Withdraw the request if it has not begun service.

        Returns True if cancelled (the event then never fires), False if
        service already started or completed.
        """
        if not self._queued:
            return False
        self._queued = False
        self.cancelled = True
        self.disk._live -= 1
        return True


class _EagerRequest:
    """Completed-transfer record for batch-advance.

    The eager service path (:meth:`Disk.commit_eager_run`) never
    enqueues or dispatches, so it does not need an
    :class:`~repro.sim.engine.Event`; this carries just the fields
    completion hooks read back.  ``slots`` must already be sorted
    ascending.
    """

    __slots__ = (
        "slots", "op", "priority", "pid", "submitted_at",
        "service_time", "seeks", "completed_at",
    )

    def __init__(
        self,
        slots: np.ndarray,
        op: str,
        priority: int,
        pid: Optional[int],
        submitted_at: float,
    ) -> None:
        self.slots = slots
        self.op = op
        self.priority = priority
        self.pid = pid
        self.submitted_at = submitted_at
        self.service_time: Optional[float] = None
        self.seeks: Optional[int] = None
        self.completed_at: Optional[float] = None

    @property
    def npages(self) -> int:
        return int(self.slots.size)


def _run_positioning(slist: list, head: int, same_op: bool,
                     positioning_s: float, coef: float) -> tuple[int, float]:
    """(seeks, positioning cost) of one transfer over the slot list ``slist``.

    Decomposes the slots into maximal consecutive runs and charges
    ``positioning_s`` (plus the optional ``coef * sqrt(distance)`` term)
    for every run that does not continue the previous transfer,
    accumulating in run order.  Only the first run can continue: it must
    start at ``head`` in the same direction (``same_op``) — a direction
    change always seeks, because page-in and page-out streams target
    different areas.  Every later run starts past a gap by construction.
    """
    first = slist[0]
    seeks = 0
    positioning = 0.0
    if not (same_op and first == head):
        seeks = 1
        positioning += positioning_s
        if coef > 0.0:
            # math.sqrt is bitwise-identical to np.sqrt
            positioning += coef * math.sqrt(abs(first - head))
    prev = first
    for s in slist[1:]:
        if s != prev + 1:
            seeks += 1
            positioning += positioning_s
            if coef > 0.0:
                positioning += coef * math.sqrt(abs(s - prev - 1))
        prev = s
    return seeks, positioning


class Disk:
    """A single paging device shared by everything on one node.

    Parameters
    ----------
    env:
        Simulation environment.
    params:
        Latency model parameters.
    on_complete:
        Optional callback ``f(request, start_time, end_time)`` invoked
        when each request finishes — the metrics collector hooks here.
    faults:
        Optional fault plan injecting transient errors / latency spikes
        into each service attempt (inert when ``None``).
    max_retries:
        Transient-error retries per request before the request fails
        with :class:`~repro.faults.errors.DiskFailure`.
    retry_budget:
        Optional cumulative retry allowance for the whole device; once
        spent, further errors fail immediately (``None`` = unlimited).
    """

    def __init__(
        self,
        env: Environment,
        params: DiskParams = DiskParams(),
        on_complete: Optional[Callable[[DiskRequest, float, float], None]] = None,
        name: str = "disk0",
        faults: Optional[FaultPlan] = None,
        max_retries: int = 4,
        retry_budget: Optional[int] = None,
        obs=NULL_OBS,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if retry_budget is not None and retry_budget < 0:
            raise ValueError("retry_budget must be non-negative")
        self.env = env
        self.params = params
        self.name = name
        self.discipline = params.discipline
        self.on_complete = on_complete
        #: optional run-aware observer ``f(op, sizes, starts, ends,
        #: pid)`` taking a whole eager run in one call; when set it
        #: replaces ``on_complete`` for bulk commits (the collector
        #: installs both)
        self.on_complete_run: Optional[Callable] = None
        self.faults = faults
        self.max_retries = max_retries
        self.retry_budget_left = retry_budget
        self._queue: list[tuple[int, int, DiskRequest]] = []
        self._seq = 0
        self._busy = False
        # an idle elevator's deferred first pick is scheduled but has not
        # run: the disk is busy, yet nothing is in service
        self._pick_pending = False
        # live (non-cancelled) queued requests, maintained incrementally
        # so submit() does not rescan the heap
        self._live = 0
        #: slot just past the last one transferred (head position)
        self._head = 0
        #: direction of the last transfer, for interleave accounting
        self._last_op: Optional[str] = None
        # cumulative statistics
        self.total_busy_s = 0.0
        self.total_requests = 0
        self.total_pages = {"read": 0, "write": 0}
        self.total_seeks = 0
        #: deepest wait queue observed (including the request in service)
        self.max_queue_seen = 0
        # fault/response statistics
        self.error_count = 0
        self.retry_count = 0
        self.failed_requests = 0
        self.latency_spikes = 0
        # telemetry (no-ops against the default NULL_OBS registry)
        self._obs_on = obs.enabled
        self._c_requests = obs.counter("disk_requests", node=name)
        self._c_pages_read = obs.counter("disk_pages", node=name, op="read")
        self._c_pages_write = obs.counter("disk_pages", node=name, op="write")
        self._c_seeks = obs.counter("disk_seeks", node=name)
        self._c_errors = obs.counter("disk_errors", node=name)
        self._c_retries = obs.counter("disk_retries", node=name)
        self._c_failed = obs.counter("disk_failed_requests", node=name)
        self._c_spikes = obs.counter("disk_latency_spikes", node=name)
        self._h_service = obs.histogram("disk_service_s", node=name)

    # -- public API ----------------------------------------------------------
    def submit(
        self,
        slots: np.ndarray,
        op: str,
        priority: int = PRIO_FOREGROUND,
        pid: Optional[int] = None,
        extra_delay: float = 0.0,
    ) -> DiskRequest:
        """Queue a transfer of ``slots``; returns an awaitable request.

        ``extra_delay`` defers the waiter-visible completion trigger by
        that much *after* service finishes (the device itself frees at
        service completion).  The fault path passes a nonzero value only
        on the fast path, where it folds the per-group major-fault CPU
        charge into the trigger instead of a separate timeout event.
        """
        req = DiskRequest(self, slots, op, priority, pid)
        req._extra_delay = extra_delay
        if not self._busy and self.discipline == "fifo":
            # idle FIFO disk (idle implies an empty queue): start service
            # at submit — the first pick would be this request anyway
            if self.max_queue_seen < 1:
                self.max_queue_seen = 1
            self._busy = True
            self._start_attempt(req, self.env.now, 0)
            return req
        req._queued = True
        self._live += 1
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (priority, seq, req))
        # a request counts as in service only once a pick started it
        depth = self._live + (
            1 if self._busy and not self._pick_pending else 0)
        if depth > self.max_queue_seen:
            self.max_queue_seen = depth
        if not self._busy:
            # idle elevator: defer the first pick of the busy period by
            # one zero-delay urgent event, so it chooses among every
            # request submitted at this instant
            self._busy = True
            self._pick_pending = True
            pick = Event(self.env)
            pick._value = None
            pick.callbacks.append(self._dispatch_next)
            self.env._schedule(pick, URGENT)
        return req

    @property
    def queue_length(self) -> int:
        """Live (non-cancelled) queued requests, excluding one in service."""
        return self._live

    @property
    def busy(self) -> bool:
        return self._busy

    def service_time_for(self, slots: np.ndarray, op: str) -> tuple[float, int]:
        """(duration, seeks) for a transfer of ``slots`` starting now.

        Pure function of the current head position / direction; used by
        the dispatcher, batch-advance and directly
        unit-testable.  Runs once per disk request, so the run
        decomposition (:func:`_run_positioning`) stays on plain Python
        ints — per-element numpy indexing here showed up in profiles.
        """
        params = self.params
        coef = params.seek_distance_coef_s
        first = int(slots[0])
        last = int(slots[-1])
        if last - first == slots.size - 1:
            # single contiguous run — the dominant case for swap-cluster
            # writes and block page-ins (slots are sorted and unique, so
            # span == size-1 implies consecutive).  Computed without the
            # run-decomposition lists: one compare decides whether the
            # head streams straight into this transfer.
            pos = self._head
            if first == pos and self._last_op == op:
                seeks = 0
                positioning = 0.0
            else:
                seeks = 1
                positioning = params.positioning_s
                if coef > 0.0:
                    positioning += coef * math.sqrt(abs(first - pos))
            return (
                params.overhead_s
                + positioning
                + slots.size * params.page_transfer_s
            ), seeks

        seeks, positioning = _run_positioning(
            slots.tolist(), self._head, self._last_op == op,
            params.positioning_s, coef,
        )
        duration = (
            params.overhead_s
            + positioning
            + slots.size * params.page_transfer_s
        )
        return duration, seeks

    # -- request queue -----------------------------------------------------
    def _pop_next(self) -> Optional[DiskRequest]:
        """Dequeue the next live request per the discipline (None if none).

        FIFO takes heap order.  The elevators choose among the live
        entries of the best priority — SSTF by distance from the head,
        C-SCAN ahead of the head in ascending slot order, then wrapping
        — with arrival order (``seq``) breaking ties.
        """
        queue = self._queue
        if self.discipline == "fifo":
            while queue:
                req = heapq.heappop(queue)[2]
                if not req.cancelled:  # else cancel() returned its _live
                    break
            else:
                return None
        else:
            live = [e for e in queue if not e[2].cancelled]
            if not live:
                queue.clear()
                return None
            head = self._head
            if self.discipline == "sstf":
                def key(e):
                    return e[0], abs(int(e[2].slots[0]) - head), e[1]
            else:  # cscan
                def key(e):
                    # ahead of the head first (ascending), then wrap
                    start = int(e[2].slots[0])
                    return e[0], start < head, start, e[1]
            chosen = min(live, key=key)
            live.remove(chosen)
            heapq.heapify(live)
            queue[:] = live
            req = chosen[2]
        req._queued = False
        self._live -= 1
        return req

    # -- one service attempt -------------------------------------------------
    # Every request runs through the same steps in the same order:
    # _attempt_time (spike draw), the service delay, the error draw and
    # _retry_or_fail with its backoff delay, and finally _complete.

    def _attempt_time(self, req: DiskRequest) -> tuple[float, int]:
        """(duration, seeks) of one service attempt, latency spike included."""
        duration, seeks = self.service_time_for(req.slots, req.op)
        if self.faults is not None:
            spike = self.faults.disk_latency_factor(self.name)
            if spike > 1.0:
                self.latency_spikes += 1
                self._c_spikes.inc()
                duration *= spike
        return duration, seeks

    def _attempt_errored(self, duration: float) -> bool:
        """Account one finished attempt and draw its transient error."""
        self.total_busy_s += duration
        return self.faults is not None and self.faults.disk_error(self.name)

    def _retry_or_fail(self, req: DiskRequest, attempt: int) -> Optional[float]:
        """Handle an error on ``attempt``: the backoff before the retry,
        or ``None`` once ``req`` has failed with :class:`DiskFailure`
        (per-request retries or the device budget spent)."""
        self.error_count += 1
        self._c_errors.inc()
        budget_out = self.retry_budget_left == 0
        if attempt >= self.max_retries or budget_out:
            self.failed_requests += 1
            self._c_failed.inc()
            why = ("device retry budget exhausted" if budget_out
                   else f"failed after {attempt} retries")
            req.fail(DiskFailure(
                f"{self.name}: {req.op} of {req.npages} pages {why}"
            ))
            return None
        if self.retry_budget_left is not None:
            self.retry_budget_left -= 1
        self.retry_count += 1
        self._c_retries.inc()
        return self.params.positioning_s * (2 ** (attempt + 1))

    def _account(self, slots: np.ndarray, op: str, duration: float,
                 seeks: int) -> None:
        """Head state, statistics and telemetry of one served transfer."""
        self._head = int(slots[-1]) + 1
        self._last_op = op
        npages = slots.size
        self.total_requests += 1
        self.total_pages[op] += npages
        self.total_seeks += seeks
        if self._obs_on:
            self._c_requests.inc()
            (self._c_pages_read if op == "read"
             else self._c_pages_write).inc(npages)
            self._c_seeks.inc(seeks)
            self._h_service.observe(duration)

    def _complete(self, req: DiskRequest, start: float, duration: float,
                  seeks: int) -> None:
        """Finish ``req`` successfully: account it, trigger it, report it."""
        self._account(req.slots, req.op, duration, seeks)
        req.service_time = duration
        req.seeks = seeks
        req.completed_at = self.env.now
        extra = req._extra_delay
        if extra > 0.0:
            # deferred trigger (see submit): the device frees now, the
            # waiter wakes `extra` later
            req._ok = True
            req._value = duration
            self.env._schedule(req, NORMAL, extra)
        else:
            req.succeed(duration)
        if self.on_complete is not None:
            self.on_complete(req, start, self.env.now)

    # -- dispatcher ------------------------------------------------------------
    # One busy period is a chain of callbacks: each attempt schedules one
    # service event whose callback finishes it (completion, or the
    # backoff timeout before the retry) and then pops the next request.

    def _dispatch_next(self, _pick: Optional[Event] = None) -> None:
        self._pick_pending = False
        req = self._pop_next()
        if req is None:
            self._busy = False
        else:
            self._start_attempt(req, self.env.now, 0)

    def _start_attempt(self, req: DiskRequest, start: float,
                       attempt: int) -> None:
        duration, seeks = self._attempt_time(req)
        # bare pre-triggered event scheduled `duration` out: what
        # Timeout() builds, minus the subclass ceremony — this runs once
        # per disk request, the single most allocated event of a
        # paging-heavy run
        ev = Event(self.env)
        ev._value = None
        self.env._schedule(ev, NORMAL, duration)
        ev.callbacks.append(
            lambda _e, req=req, start=start, attempt=attempt,
            duration=duration, seeks=seeks:
            self._finish_attempt(req, start, attempt, duration, seeks)
        )

    def _finish_attempt(self, req: DiskRequest, start: float, attempt: int,
                        duration: float, seeks: int) -> None:
        if not self._attempt_errored(duration):
            self._complete(req, start, duration, seeks)
        else:
            backoff = self._retry_or_fail(req, attempt)
            if backoff is not None:
                self.env.timeout(backoff).callbacks.append(
                    lambda _e, req=req, start=start, attempt=attempt + 1:
                    self._start_attempt(req, start, attempt)
                )
                return
        self._dispatch_next()

    # -- batch-advance (eager) service -------------------------------------
    # Used by batch-advance (part of the fast path):
    # while the VMM holds a quiescence proof for the node (idle disk, no
    # competing demand, deadline slack, no fault plan), requests are
    # serviced synchronously under a caller-maintained local clock.
    # Every head-model computation, statistic, telemetry update and
    # completion-hook timestamp matches what the dispatcher would have
    # produced at the same virtual times; the service/trigger events that
    # would have existed are tallied on ``env.events_absorbed``.

    def eager_ready(self) -> bool:
        """Whether batch-advance may bypass the dispatcher.

        Requires an idle device with an empty queue (so eager service
        cannot reorder against queued work), no fault plan (injection
        points are interaction boundaries), FIFO discipline (an elevator
        must see the queue to reorder it), and
        the flat-seek model (the reclaim-bound arithmetic in the VMM
        assumes one ``positioning_s`` upper-bounds any seek).
        """
        return (
            not self._busy
            and not self._queue
            and self.faults is None
            and self.discipline == "fifo"
            and self.params.seek_distance_coef_s == 0.0
        )

    def service_eager(
        self,
        slots: np.ndarray,
        op: str,
        t: float,
        priority: int = PRIO_FOREGROUND,
        pid: Optional[int] = None,
    ) -> _EagerRequest:
        """Service one transfer synchronously, starting at local time ``t``.

        Mirrors one dispatched attempt on a fault-free device: same
        service-time arithmetic against the current head state, same
        accounting (:meth:`_account`), and the completion hook
        fires with the exact (start, end) window the dispatcher would
        have used.  Absorbs the service timeout and completion trigger
        (two events).

        No simulator code calls this (batch-advance commits every eager
        transfer through :meth:`commit_eager_run`); it stays because
        the per-layer host time table (perfbench/layers.py) resolves it
        by name.
        """
        slots = np.sort(np.asarray(slots, dtype=np.int64))
        req = _EagerRequest(slots, op, priority, pid, t)
        duration, seeks = self.service_time_for(slots, op)
        if self.max_queue_seen < 1:
            self.max_queue_seen = 1
        self.total_busy_s += duration
        self._account(slots, op, duration, seeks)
        req.service_time = duration
        req.seeks = seeks
        completed = t + duration
        req.completed_at = completed
        self.env.events_absorbed += 2
        if self.on_complete is not None:
            self.on_complete(req, t, completed)
        return req

    def eager_run_times(
        self, firsts: np.ndarray, sizes: np.ndarray, op: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Head-model (durations, seeks) for back-to-back contiguous runs.

        Vectorized equivalent of calling :meth:`service_time_for` once
        per group with the head advancing in between: group ``i``
        streams free of positioning cost iff it starts exactly where
        group ``i-1`` ended (group 0 compares against the current head
        position *and* last direction).  Only valid under
        :meth:`eager_ready` (flat-seek model) and for single-run groups.
        """
        params = self.params
        pos = np.empty(firsts.size, dtype=np.int64)
        pos[0] = self._head
        if firsts.size > 1:
            np.add(firsts[:-1], sizes[:-1], out=pos[1:])
        continues = firsts == pos
        if self._last_op != op:
            continues[0] = False
        seeks = np.where(continues, 0, 1)
        positioning = np.where(continues, 0.0, params.positioning_s)
        durations = (
            (params.overhead_s + positioning)
            + sizes * params.page_transfer_s
        )
        return durations, seeks

    def eager_times_list(
        self, slots_list: list, op: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Head-model (durations, seeks) for back-to-back transfers of
        arbitrary shape.

        General-shape companion of :meth:`eager_run_times`: each entry
        of ``slots_list`` is one request's *sorted* slot array,
        serviced in order with the head advancing in between.
        Discontiguous slot sets pay the same per-run positioning walk
        as :meth:`service_time_for`.  Flat-seek model only — valid
        under :meth:`eager_ready`.
        """
        params = self.params
        n = len(slots_list)
        durations = np.empty(n)
        seeks = np.empty(n, dtype=np.int64)
        head = self._head
        last_same = self._last_op == op
        for i, slots in enumerate(slots_list):
            sk, positioning = _run_positioning(
                slots.tolist(), head, last_same, params.positioning_s, 0.0
            )
            durations[i] = (
                params.overhead_s
                + positioning
                + slots.size * params.page_transfer_s
            )
            seeks[i] = sk
            head = int(slots[-1]) + 1
            last_same = True
        return durations, seeks

    def commit_eager_run(
        self,
        sizes: np.ndarray,
        durations: np.ndarray,
        seeks: np.ndarray,
        starts: np.ndarray,
        completions: np.ndarray,
        op: str,
        priority: int = PRIO_FOREGROUND,
        pid: Optional[int] = None,
        *,
        firsts: Optional[np.ndarray] = None,
        slots_list: Optional[list] = None,
    ) -> None:
        """Apply the bookkeeping of a whole eager run in one pass.

        ``starts``/``completions`` are the per-request service windows
        the caller derived from :meth:`eager_run_times` (waiter-visible
        fused CPU charges excluded — the device frees at service
        completion, exactly as the dispatcher's deferred trigger does).
        Request ``i`` moves ``sizes[i]`` pages: the contiguous slot run
        ``[firsts[i], firsts[i] + sizes[i])``, or the sorted array
        ``slots_list[i]`` when the run is fragmented.  Pass exactly one
        of the two; per-request slot arrays are built only for the
        per-request ``on_complete`` hook.
        """
        n = sizes.size
        if self.max_queue_seen < 1:
            self.max_queue_seen = 1
        # strict left-fold accumulation: bit-identical to n scalar adds
        self.total_busy_s = float(np.add.accumulate(
            np.concatenate(([self.total_busy_s], durations)))[-1])
        if slots_list is None:
            self._head = int(firsts[-1]) + int(sizes[-1])
        else:
            self._head = int(slots_list[-1][-1]) + 1
        self._last_op = op
        npages = int(sizes.sum())
        nseeks = int(seeks.sum())
        self.total_requests += n
        self.total_pages[op] += npages
        self.total_seeks += nseeks
        if self._obs_on:
            self._c_requests.inc(n)
            (self._c_pages_read if op == "read"
             else self._c_pages_write).inc(npages)
            self._c_seeks.inc(nseeks)
            self._h_service.observe_many(durations)
        self.env.events_absorbed += 2 * n
        run_hook = self.on_complete_run
        if run_hook is not None:
            # run-aware observer: one call for the whole run (the
            # per-request facts it needs, without request objects)
            run_hook(op, sizes.tolist(), starts.tolist(),
                     completions.tolist(), pid)
            return
        hook = self.on_complete
        if hook is not None:
            if slots_list is None:
                slots_list = [np.arange(f, f + s) for f, s in
                              zip(firsts.tolist(), sizes.tolist())]
            st = durations.tolist()
            sk = seeks.tolist()
            t0 = starts.tolist()
            t1 = completions.tolist()
            for i in range(n):
                req = _EagerRequest(slots_list[i], op, priority, pid, t0[i])
                req.service_time = st[i]
                req.seeks = sk[i]
                req.completed_at = t1[i]
                hook(req, t0[i], t1[i])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Disk({self.name}, queued={self.queue_length}, busy={self._busy}, "
            f"served={self.total_requests})"
        )


__all__ = [
    "DISCIPLINES",
    "Disk",
    "DiskParams",
    "DiskRequest",
    "ERA_DISK",
    "PRIO_BACKGROUND",
    "PRIO_FOREGROUND",
]
