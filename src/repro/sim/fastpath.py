"""The execution-mode switch: the scalar oracle or the fast path.

Between gang switches a job's reference stream is hit-dominated; the
fast path removes per-chunk simulation machinery that provably cannot
change any simulated outcome:

* the job execution loop coalesces consecutive fully-resident chunks
  into a single CPU timeout (:mod:`repro.gang.job`);
* the fault path folds the per-group major-fault CPU charge into the
  disk request's completion trigger instead of a separate timeout;
* **batch-advance**: a demand fill that holds the closed-system proof
  opens one eager window (``repro.mem.vmm.EagerWindow``: a local clock
  valid strictly before :func:`window_deadline`) and applies its read
  groups, zero-fill delays and reclaim write batches synchronously on
  that clock, re-entering the event loop with a single resync timeout
  at the window's exact end time.  Reclaim inside the window is the
  scalar reclaim loop itself, driven so that it may not yield.  The
  events the window *would* have dispatched are tallied on
  ``Environment.events_absorbed``, so ``events_simulated`` stays
  comparable across modes.

* the page table caches its resident / dirty-resident / candidate /
  touched views per mutation epoch and keeps an O(1) resident count
  (:mod:`repro.mem.page_table`).

All of these are pure compute-saving transforms: with the fast path on,
every simulation *output* (makespan, paging/fault counters, metrics
records, mechanism counters) stays bit-for-bit identical, while
``Environment.events_processed`` legitimately drops because fewer
bookkeeping events exist.  ``set_fast_path_enabled(False)`` selects the
scalar oracle, which restores the per-chunk job event structure exactly
and rescans every page-table view on each call.  The disk is not part
of either mode: one dispatcher serves both, so the oracle's event
stream is the historical one without the disk process each busy period
used to spawn (the documented re-baseline for pinned event counts is
keyed on this switch — see docs/architecture.md).

This is the simulator's only execution switch.  It is read at run time
so identity tests can compare the modes; toggle it *between*
simulation runs, never while an environment is mid-run (a
half-switched run would mix event structures).
"""

from __future__ import annotations

import math

#: Module-level switch consulted by the hot paths.  Mutate only through
#: :func:`set_fast_path_enabled`.
ENABLED = True


def set_fast_path_enabled(enabled: bool) -> None:
    """Select the fast path (``True``) or the scalar oracle."""
    global ENABLED
    ENABLED = bool(enabled)


def fast_path_enabled() -> bool:
    """Whether the fast path is active."""
    return ENABLED


def window_deadline(published) -> float:
    """The instant before which batched work on a node must end.

    ``published`` is the node's deadline publisher (its
    ``AdaptivePaging``): at ``bg_arm_at`` the background writer arms
    and at ``run_cap_at`` the gang switch wakes, and either may observe
    page state.  A writer that is cleaning may wake at any instant, so
    then nothing may be batched and the deadline is ``-inf``.
    """
    bg = published.bgwriter
    if bg is not None and bg.active:
        return -math.inf
    arm, cap = published.bg_arm_at, published.run_cap_at
    return arm if arm < cap else cap


__all__ = [
    "ENABLED",
    "fast_path_enabled",
    "set_fast_path_enabled",
    "window_deadline",
]
