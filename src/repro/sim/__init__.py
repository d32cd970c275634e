"""Discrete-event simulation kernel.

A small, dependency-free event-driven simulator in the style of SimPy:
coroutine processes driven by an event loop with a virtual clock.  The
rest of the library (disk, virtual memory, gang scheduler, cluster) is
built on this kernel so that every experiment is deterministic and runs
at laptop scale regardless of how many simulated minutes it covers.

Public surface
--------------
:class:`Environment`  — the event loop and virtual clock.
:class:`Event`        — the basic one-shot event.
:class:`Timeout`      — an event that fires after a virtual delay.
:class:`Process`      — a generator-based coroutine process.
:class:`Interrupt`    — exception thrown into an interrupted process.
:class:`Resource`     — FIFO shared resource with finite capacity.
:class:`PriorityResource` — resource whose queue is priority-ordered.
:class:`RngStreams`   — named, independently seeded random streams.
:func:`set_fast_path_enabled` — choose between the fast path and the
scalar oracle, the only execution-mode switch (:mod:`repro.sim.fastpath`).
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.fastpath import fast_path_enabled, set_fast_path_enabled
from repro.sim.resources import PriorityResource, Resource
from repro.sim.rng import RngStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "PriorityResource",
    "Process",
    "Resource",
    "RngStreams",
    "SimulationError",
    "Timeout",
    "fast_path_enabled",
    "set_fast_path_enabled",
]
