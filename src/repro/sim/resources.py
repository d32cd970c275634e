"""Shared resources for coroutine processes.

:class:`Resource` models a finite-capacity server with a FIFO wait
queue; :class:`PriorityResource` orders waiters by a numeric priority
(lower value = served earlier, FIFO within a priority level).  The disk
request queue uses the priority variant so foreground page faults can
overtake background dirty-page writes.

Usage::

    disk = Resource(env, capacity=1)

    def user(env, disk):
        req = disk.request()
        yield req
        try:
            yield env.timeout(0.010)   # hold the resource
        finally:
            disk.release(req)
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Optional

from repro.sim.engine import Environment, Event, SimulationError


class Request(Event):
    """Pending acquisition of a resource slot.

    Fires (succeeds) when the slot is granted.  Also usable as a context
    manager so ``with resource.request() as req: yield req`` releases on
    exit.  Carries ``__slots__`` like every other event class: every
    eviction and background-writer burst makes one.
    """

    __slots__ = ("resource", "priority", "granted", "cancelled")

    def __init__(self, resource: "Resource", priority: float = 0.0) -> None:
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        #: set once the request has been granted a slot
        self.granted = False
        #: set if the request was cancelled before being granted
        self.cancelled = False

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an un-granted request (no-op if already granted)."""
        if self.granted or self.cancelled:
            return
        self.cancelled = True
        self.resource._purge_cancelled()


class Resource:
    """Finite-capacity shared resource with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        # heap entries: (sort_key, seq, request)
        self._waiting: list[tuple[float, int, Request]] = []
        self._seq = count()

    # -- introspection ---------------------------------------------------
    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of live (non-cancelled) waiting requests."""
        return sum(1 for _, _, r in self._waiting if not r.cancelled)

    # -- protocol ----------------------------------------------------------
    def _sort_key(self, request: Request) -> float:
        return 0.0  # FIFO: rely on the sequence counter

    def request(self, priority: float = 0.0) -> Request:
        """Ask for a slot; the returned event fires when granted."""
        req = Request(self, priority)
        if self._in_use < self.capacity and not self._waiting:
            # uncontended: the heap round trip below would pop this
            # request straight back out and grant it the same way
            req.granted = True
            self._in_use += 1
            req.succeed(req)
            return req
        heapq.heappush(self._waiting, (self._sort_key(req), next(self._seq), req))
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot (or cancel a pending request)."""
        if not request.granted:
            request.cancel()
            return
        if request.cancelled:
            raise SimulationError("request released twice")
        request.cancelled = True  # reuse flag to catch double release
        self._in_use -= 1
        if self._waiting:
            self._grant()

    # -- internals ---------------------------------------------------------
    def _purge_cancelled(self) -> None:
        while self._waiting and self._waiting[0][2].cancelled:
            heapq.heappop(self._waiting)

    def _grant(self) -> None:
        self._purge_cancelled()
        while self._in_use < self.capacity and self._waiting:
            _, _, req = heapq.heappop(self._waiting)
            if req.cancelled:
                continue
            req.granted = True
            self._in_use += 1
            req.succeed(req)
            self._purge_cancelled()


class PriorityResource(Resource):
    """Resource whose wait queue is ordered by request priority.

    Lower priority numbers are served first; equal priorities are FIFO.
    Granting is non-preemptive: a low-priority holder finishes its
    service even if a high-priority request arrives meanwhile.
    """

    def _sort_key(self, request: Request) -> float:
        return request.priority


def hold(env: Environment, resource: Resource, duration: float,
         priority: float = 0.0):
    """Convenience process fragment: acquire, hold for ``duration``, release.

    Yields from within a process::

        yield from hold(env, disk, 0.010, priority=1)
    """
    req = resource.request(priority)
    yield req
    try:
        yield env.timeout(duration)
    finally:
        resource.release(req)


__all__ = ["PriorityResource", "Request", "Resource", "hold"]
