"""The per-node virtual memory manager.

Ties the frame pool, page tables, replacement policy, swap allocator
and disk together, and exposes the three hook points the adaptive
mechanisms of :mod:`repro.core` use:

``victim_selector``
    Replaces baseline victim selection during a job switch (selective
    page-out, §3.1).
``on_flush``
    Observes every page-out, in flush order (the adaptive page-in
    recorder, §3.3).
``evict_batch`` / ``reclaim``
    Called directly by aggressive page-out (§3.2) and the background
    writer (§3.4) to force page-outs outside the fault path.

All methods that perform disk I/O are generator *process fragments* to
be driven with ``yield from`` inside a simulation process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Callable, Mapping, Optional

import numpy as np

from repro.disk.device import Disk, PRIO_FOREGROUND
from repro.disk.swap import SwapAllocator
from repro.mem.frames import FramePool, OutOfFramesError
from repro.mem.page_table import PageTable
from repro.mem.params import MemoryParams
# the per-layer host time table (perfbench/layers.py) traces the
# read-ahead planner under the name plan_swapins_fused
from repro.mem.readahead import (
    dedupe_preserve_order,
    plan_swapins as plan_swapins_fused,
)
from repro.mem.replacement import (
    GlobalLruPolicy,
    ReplacementPolicy,
    VictimBatch,
)
from repro.obs.registry import NULL_OBS
from repro.sim import fastpath as _fastpath
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource


@dataclass
class FaultStats:
    """Cumulative paging statistics for one node."""

    minor_faults: int = 0          # zero-fill pages
    major_faults: int = 0          # fault events serviced from swap
    pages_swapped_in: int = 0      # pages read (incl. read-ahead)
    pages_swapped_out: int = 0     # pages written
    pages_discarded: int = 0       # clean evictions (no I/O)
    evictions: int = 0             # pages removed from memory (total)
    refaults: int = 0              # pages swapped in soon after eviction
    reclaim_episodes: int = 0

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of all counters."""
        return dict(self.__dict__)


def _segment_sums(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Set entries of ``mask`` per segment ``offsets[k]:offsets[k+1]``
    (empty segments sum to 0, unlike ``np.add.reduceat``)."""
    acc = np.zeros(mask.size + 1, dtype=np.int64)
    np.cumsum(mask, out=acc[1:])
    return acc[offsets[1:]] - acc[offsets[:-1]]


class VirtualMemoryManager:
    """Demand-paged virtual memory for one node.

    Parameters
    ----------
    env:
        Simulation environment.
    params:
        Memory configuration (frames, watermarks, read-ahead, ...).
    disk:
        The node's paging device.
    policy:
        Baseline replacement policy (default: global LRU approximation).
    refault_window_s:
        A page swapped back in within this many seconds of its eviction
        counts as a *refault* — the observable symptom of the paper's
        §3.1 false eviction.
    """

    def __init__(
        self,
        env: Environment,
        params: MemoryParams,
        disk: Disk,
        policy: Optional[ReplacementPolicy] = None,
        refault_window_s: float = 300.0,
        name: str = "vmm0",
        obs=NULL_OBS,
    ) -> None:
        self.env = env
        self.params = params
        self.disk = disk
        self.name = name
        self.policy = policy or GlobalLruPolicy()
        self.refault_window_s = refault_window_s
        self.frames = FramePool(
            params.total_frames, params.freepages_min, params.freepages_high
        )
        self.swap = SwapAllocator(params.swap_slots)
        self.tables: dict[int, PageTable] = {}
        self.stats = FaultStats()
        # eviction timestamps per pid for refault detection
        self._evicted_at: dict[int, np.ndarray] = {}
        # demand sets of in-flight fault services; pages here must never
        # be selected as victims (several touches can be in flight when
        # a stopped process is still finishing kernel-side fault work)
        self._active_demands: list[tuple[int, np.ndarray]] = []
        # entries purged by unregister_process while their fault service
        # was still in flight (identity set: _remove_demand must not
        # raise when the generator finally unwinds)
        self._purged_demands: set[int] = set()
        # per-pid event fired when that pid's next in-flight demand
        # ends (see demand_settled)
        self._demand_waiters: dict[int, Event] = {}
        # pids that have ever had a page evicted — before the first
        # eviction the refault gather can be skipped entirely
        self._ever_evicted: set[int] = set()
        # per-pid refcount of in-flight demand membership, mirroring
        # _active_demands: counts[page] > 0 == page is in some demand
        # set.  evict_batch consults this instead of rebuilding the
        # merged map and running set-membership per batch (hot path).
        self._demand_counts: dict[int, np.ndarray] = {}
        # serialises evictions (the kernel's reclaim path holds a lock);
        # victims are re-validated after the wait
        self._evict_lock = Resource(env, capacity=1)
        # whether the most recent reclaim round found any candidates
        # (distinguishes "nothing evictable" from "victims went stale")
        self._reclaim_saw_candidates = False
        #: deadline publisher for batch-advance — the node's
        #: AdaptivePaging, wired by the schedulers' start() (and only
        #: there: a bare VMM driven by unit tests keeps the scalar
        #: path, whose interleavings those tests rely on).  Batch-advance
        #: may only commit events strictly before
        #: min(bg_arm_at, run_cap_at): at either deadline another
        #: actor (background writer, gang switch) wakes and may
        #: observe page state.
        self.deadlines = None

        # telemetry (no-ops against the default NULL_OBS registry);
        # _obs_on gates the few sites that would otherwise do real work
        # (env.now reads, span emission) when telemetry is off
        self._obs = obs
        self._obs_on = obs.enabled
        self._c_minor = obs.counter("vmm_minor_faults", node=name)
        self._c_major = obs.counter("vmm_major_faults", node=name)
        self._c_pages_in = obs.counter("vmm_pages_swapped_in", node=name)
        self._c_pages_out = obs.counter("vmm_pages_swapped_out", node=name)
        self._c_discarded = obs.counter("vmm_pages_discarded", node=name)
        self._c_evictions = obs.counter("vmm_evictions", node=name)
        self._c_refaults = obs.counter("vmm_refaults", node=name)

        # -- adaptive-mechanism hook points --------------------------------
        #: when set, replaces baseline victim selection; same signature
        #: as ReplacementPolicy.select_victims
        self.victim_selector: Optional[
            Callable[[Mapping[int, PageTable], int, int,
                      Optional[Mapping[int, np.ndarray]]], list[VictimBatch]]
        ] = None
        #: observer called as on_flush(pid, pages) for every page-out,
        #: in flush order
        self.on_flush: Optional[Callable[[int, np.ndarray], None]] = None

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------
    def register_process(self, pid: int, num_pages: int) -> PageTable:
        """Create the page table for a new process."""
        if pid in self.tables:
            raise ValueError(f"pid {pid} already registered")
        table = PageTable(pid, num_pages)
        self.tables[pid] = table
        self._evicted_at[pid] = np.full(num_pages, -np.inf)
        self._demand_counts[pid] = np.zeros(num_pages, dtype=np.int32)
        return table

    def unregister_process(self, pid: int) -> None:
        """Tear down an exited process, releasing frames and swap.

        Any in-flight demand entries of the pid are purged so
        :meth:`_active_protect` never hands a dead pid's page array to a
        victim selector (page numbers of a dead table could even exceed
        a successor process's address space).
        """
        table = self.tables.pop(pid)
        self._evicted_at.pop(pid)
        self._demand_counts.pop(pid)
        self._ever_evicted.discard(pid)
        stale = [e for e in self._active_demands if e[0] == pid]
        if stale:
            self._active_demands = [
                e for e in self._active_demands if e[0] != pid
            ]
            self._purged_demands.update(id(e) for e in stale)
            self._settle_waiter(pid)
        self.frames.release(table.resident_count)
        slots = table.swap_slot[table.swap_slot >= 0]
        if slots.size:
            self.swap.free(slots)

    def resident_pages_total(self) -> int:
        """Total resident pages across every registered process."""
        return sum(t.resident_count for t in self.tables.values())

    # ------------------------------------------------------------------
    # the steady-state fast path (see repro.sim.fastpath)
    # ------------------------------------------------------------------
    def resident_all(self, pid: int, pages: np.ndarray) -> bool:
        """One vectorised probe: is the whole chunk already resident?"""
        return bool(self.tables[pid].present[pages].all())

    def touch_fast(self, pid: int, pages: np.ndarray,
                   dirty: bool | np.ndarray = False) -> bool:
        """Service a fully-resident chunk without the generator fault path.

        Returns ``True`` when every page of ``pages`` (already deduped by
        :func:`~repro.workloads.base.expand_phase`) is resident: the
        chunk is then referenced via :meth:`PageTable.record_access` and
        no demand entry, swap-in plan, or simulation event is created.
        This is invisible to the rest of the simulation because the
        legacy :meth:`touch` performs *zero yields* for a fully-resident
        chunk — same page-state writes, same timestamps, no time passes
        either way.  Returns ``False`` (having touched nothing) when any
        page is absent; the caller must then fall back to :meth:`touch`.
        """
        table = self.tables[pid]
        if pages.size > self.params.total_frames - self.params.freepages_high:
            raise ValueError(
                f"phase demands {pages.size} pages; node has only "
                f"{self.params.total_frames} frames (chunk the phase)"
            )
        if not table.present[pages].all():
            return False
        table.record_access(pages, self.env.now, dirty)
        return True

    def fastpath_quiescent(self) -> bool:
        """True when no fault service or eviction is in flight.

        The resident-run batching in :mod:`repro.gang.job` defers
        page-reference stamping to the end of a coalesced CPU burst;
        that is only sound while nothing else can read or mutate page
        state mid-run.  In-flight demand sets and a held (or contended)
        eviction lock are exactly the situations where a concurrent
        process fragment is awake between our events.
        """
        lock = self._evict_lock
        return (not self._active_demands
                and lock.in_use == 0
                and lock.queue_length == 0)

    # ------------------------------------------------------------------
    # the demand-paging fault path
    # ------------------------------------------------------------------
    def touch(self, pid: int, pages: np.ndarray,
              dirty: bool | np.ndarray = False):
        """Process fragment: make ``pages`` resident and reference them.

        ``pages`` is in touch order; ``dirty`` is a scalar or per-page
        mask.  Yields on disk I/O for page-ins and any reclaim writes.
        The demand set is protected from eviction while being serviced,
        so a single call must not demand more pages than physical memory
        minus the high watermark (workload phases are chunked to ensure
        this).
        """
        table = self.tables[pid]
        pages = dedupe_preserve_order(pages)
        if pages.size > self.params.total_frames - self.params.freepages_high:
            raise ValueError(
                f"phase demands {pages.size} pages; node has only "
                f"{self.params.total_frames} frames (chunk the phase)"
            )
        entry = (pid, pages)
        self._add_demand(entry)
        # telemetry: a touch that swaps pages in from disk is a
        # demand-fill burst (the post-switch working-set refill when
        # adaptive page-in is off or its record was incomplete)
        t0 = self.env.now if self._obs_on else 0.0
        filled = 0
        try:
            # Loop: a page resident when first checked can be evicted by
            # an in-flight write that had already selected it; re-check
            # until the whole demand set is resident.
            while True:
                absent = pages[~table.present[pages]]
                if absent.size == 0:
                    break
                groups = plan_swapins_fused(
                    table, absent, self.params.readahead_pages
                )
                done = 0
                if self._eager_entry_ok():
                    done, t_end, efilled, exc = self._advance_eager(
                        table, pid, groups
                    )
                    if self._obs_on:
                        filled += efilled
                    if t_end > self.env.now:
                        # the resync wakeup stands in for the last
                        # absorbed completion trigger (the scalar path
                        # would have woken us at exactly this instant)
                        self.env.events_absorbed -= 1
                        yield self.env.timeout_at(t_end)
                    if exc is not None:
                        raise exc
                for group in groups[done:]:
                    # a group page may have been brought in meanwhile;
                    # when none was (the overwhelmingly common case) the
                    # planned arrays are used as-is, skipping the mask
                    # inversion and two fancy-index copies
                    gpages = group.pages
                    pres = table.present[gpages]
                    if pres.any():
                        mask = ~pres
                        gpages = gpages[mask]
                        if gpages.size == 0:
                            continue
                        gslots = group.slots[mask] \
                            if group.slots is not None else None
                    else:
                        gslots = group.slots
                    # inline guard: _ensure_frames returns without
                    # yielding when the watermark already holds, so
                    # replicating its first check here skips a generator
                    # per group with no behavioural difference
                    if (self.frames.free < gpages.size
                            or self.frames.below_min(gpages.size)):
                        yield from self._ensure_frames(gpages.size)
                    self.frames.allocate(gpages.size)
                    if gslots is None:
                        self.stats.minor_faults += gpages.size
                        self._c_minor.inc(gpages.size)
                        delay = gpages.size * self.params.minor_fault_s
                        if delay > 0:
                            yield self.env.timeout(delay)
                    else:
                        cpu = gpages.size * self.params.major_fault_cpu_s
                        # fast path: fold the post-read CPU charge into
                        # the request's completion trigger (the device
                        # still frees at service completion Tc; our
                        # wakeup just moves from Tc -> Tc + cpu, saving
                        # one Timeout event per read group)
                        fused = _fastpath.ENABLED and cpu > 0
                        req = self.disk.submit(
                            gslots, "read", PRIO_FOREGROUND, pid=pid,
                            extra_delay=cpu if fused else 0.0,
                        )
                        try:
                            yield req
                        except Exception:
                            # failed page-in (e.g. disk retry budget
                            # exhausted): return the frames before the
                            # fault propagates to the process
                            self.frames.release(gpages.size)
                            raise
                        self.stats.major_faults += 1
                        self.stats.pages_swapped_in += gpages.size
                        self._c_major.inc()
                        self._c_pages_in.inc(gpages.size)
                        if self._obs_on:
                            filled += gpages.size
                        # refault detection is keyed on the *service
                        # completion* time, which in fused mode is cpu
                        # earlier than env.now
                        self._count_refaults(pid, gpages,
                                             now=req.completed_at)
                        if cpu > 0 and not fused:
                            yield self.env.timeout(cpu)
                    table.make_resident(gpages)
                    # the fault itself is a reference (protects freshly
                    # faulted pages from instant LRU re-eviction)
                    table.set_last_ref(gpages, self.env.now)
        finally:
            self._remove_demand(entry)
        if filled:
            self._obs.span("demand_fill", self.name, t0, self.env.now,
                           pid=pid, pages=filled)
        table.record_access(pages, self.env.now, dirty)

    # ------------------------------------------------------------------
    # batch-advance (see repro.sim.fastpath)
    # ------------------------------------------------------------------
    def _eager_entry_ok(self) -> bool:
        """Whether a demand fill may be advanced eagerly.

        Batch-advance replays a fill's event sequence
        synchronously under a local clock, so it is sound only while a
        *closed-system* proof holds: nothing else may observe or mutate
        this node's state until the fill's last committed event time.
        The conjuncts below are exactly that proof:

        * ``deadlines`` wired — a scheduler owns this node and
          publishes when the next external actor (gang switch,
          background-writer arm) can wake; bare VMMs stay scalar;
        * our own demand is the *only* one in flight (a stopped rank
          mid-fault, or a concurrent block swap-in, interleaves);
        * the eviction lock is free and uncontended;
        * the disk is idle with FIFO discipline and no fault plan
          (injection points are interaction boundaries);
        * the background writer is not actively cleaning.
        """
        if not _fastpath.ENABLED:
            return False
        dl = self.deadlines
        if dl is None:
            return False
        lock = self._evict_lock
        if (len(self._active_demands) != 1
                or lock.in_use != 0
                or lock.queue_length != 0
                or not self.disk.eager_ready()):
            return False
        bg = dl.bgwriter
        return bg is None or not bg.active

    def _advance_eager(self, table, pid: int, groups):
        """Apply a prefix of ``groups`` synchronously with a local clock.

        Replays, op for op, what the scalar loop in :meth:`touch` would
        have committed — same service times, statistics, telemetry and
        hook timestamps — without dispatching any events; the events it
        stands in for are tallied on ``env.events_absorbed``.  Runs of
        read groups are committed whole by :meth:`_eager_read_run`;
        zero-fill groups and reclaim steps go one at a time.  Stops at
        the first group whose service cannot provably finish strictly
        before the published deadline (the caller's scalar loop resumes
        there after one resync timeout).

        Returns ``(done, t_end, filled, exc)``: groups committed, the
        local clock, pages read (for the demand-fill span) and a
        pending :class:`OutOfFramesError` to re-raise *after* the
        resync (the scalar path raises it at exactly that instant).
        """
        env = self.env
        params = self.params
        frames = self.frames
        dl = self.deadlines
        deadline = dl.bg_arm_at if dl.bg_arm_at < dl.run_cap_at \
            else dl.run_cap_at
        t = env.now
        done = 0
        filled = 0
        if not t < deadline:
            return 0, t, 0, None
        n = len(groups)
        while done < n:
            group = groups[done]
            gpages = group.pages
            # the scalar loop's per-group presence recheck is skipped:
            # plan groups are pairwise disjoint and nothing else can
            # make pages resident inside a closed eager pass
            if frames.free < gpages.size or frames.below_min(gpages.size):
                try:
                    ok, t = self._eager_ensure(gpages.size, t, deadline)
                except OutOfFramesError as exc:
                    return done, t, filled, exc
                if not ok:
                    break
            if group.slots is not None:
                ngroups, t, npages = self._eager_read_run(
                    table, pid, groups, done, t, deadline
                )
                if not ngroups:
                    break
                done += ngroups
                filled += npages
                continue
            delay = gpages.size * params.minor_fault_s
            t2 = t + delay
            if delay > 0 and not t2 < deadline:
                break
            frames.allocate(gpages.size)
            self.stats.minor_faults += gpages.size
            self._c_minor.inc(gpages.size)
            if delay > 0:
                t = t2
                env.events_absorbed += 1
            table.make_resident(gpages)
            table.set_last_ref(gpages, t)
            done += 1
        return done, t, filled, None

    def _eager_read_run(self, table, pid: int, groups, start: int,
                        t: float, deadline: float):
        """Vectorized commit of a run of read groups.

        Takes the read groups from ``groups[start:]`` up to the first
        zero-fill group or the first group whose frames would breach
        ``freepages.min`` (the caller has already made room for the
        first one), so the scan visits at most one group it does not
        commit.  All-contiguous runs are priced by the chained head
        model of :meth:`~repro.disk.device.Disk.eager_run_times`,
        others by the general walk of
        :meth:`~repro.disk.device.Disk.eager_times_list`.  The prefix
        whose waiter-visible completions all land strictly before
        ``deadline`` is applied with array operations: one accumulate
        for the exact event times, one frame allocation, bulk
        page-state flips, a vectorized refault gather and a bulk disk
        commit.  Returns ``(ngroups, t_end, npages)``; ``ngroups`` is 0
        when the first group cannot finish before ``deadline``.
        """
        params = self.params
        g = groups[start]
        run = [g]
        sizes = [g.pages.size]
        room = self.frames.free - params.freepages_min - sizes[0]
        contig = g.contig
        k = start + 1
        n = len(groups)
        while k < n:
            g = groups[k]
            size = g.pages.size
            if g.slots is None or size > room:
                break
            run.append(g)
            sizes.append(size)
            room -= size
            contig = contig and g.contig
            k += 1
        sizes = np.array(sizes, dtype=np.int64)
        # planner-certified set contiguity: group slots are in page
        # order, where a span test alone is unsound (a permutation like
        # [2, 1, 6, 5] passes it while covering two disk runs)
        if contig:
            firsts = np.array([g.slot0 for g in run], dtype=np.int64)
            durations, seeks = self.disk.eager_run_times(
                firsts, sizes, "read")
        else:
            # the device services the sorted slot set (scalar requests
            # sort on submission)
            slots_list = [np.sort(g.slots) for g in run]
            durations, seeks = self.disk.eager_times_list(
                slots_list, "read")
        # exact event times by strict left-fold: acc interleaves each
        # group's service completion T_c and its fused CPU charge, so
        # T_c = acc[1::2] and the waiter resumes at acc[2::2] — the
        # same float additions, in the same order, as the scalar path
        cpus = sizes * params.major_fault_cpu_s
        inter = np.empty(2 * sizes.size, dtype=np.float64)
        inter[0::2] = durations
        inter[1::2] = cpus
        acc = np.add.accumulate(np.concatenate(([t], inter)))
        waiters = acc[2::2]
        inside = waiters < deadline
        m = sizes.size if inside.all() else int(np.argmin(inside))
        if m == 0:
            return 0, t, 0
        sizes = sizes[:m]
        t_c = acc[1:2 * m:2]
        waiters = waiters[:m]
        if contig:
            # a contiguous set's sorted form is its arange, regardless
            # of the group's page-order shuffle
            slots_list = [np.arange(f, f + s) for f, s in
                          zip(firsts[:m].tolist(), sizes.tolist())]
        all_pages = np.concatenate([g.pages for g in run[:m]])
        total = int(sizes.sum())
        self.frames.allocate(total)
        self.stats.major_faults += m
        self.stats.pages_swapped_in += total
        self._c_major.inc(m)
        self._c_pages_in.inc(total)
        if pid in self._ever_evicted:
            evicted = self._evicted_at[pid][all_pages]
            recent = np.repeat(t_c, sizes) - evicted < self.refault_window_s
            nref = int(np.count_nonzero(recent))
            self.stats.refaults += nref
            if nref:
                self._c_refaults.inc(nref)
        self.disk.commit_eager_run(
            slots_list[:m], sizes, durations[:m], seeks[:m],
            acc[0:2 * m:2], t_c, "read", PRIO_FOREGROUND, pid=pid,
        )
        table.make_resident(all_pages)
        table.set_last_ref_values(all_pages, np.repeat(waiters, sizes))
        return m, float(waiters[-1]), total

    def _eager_ensure(self, incoming: int, t: float, deadline: float):
        """Eager mirror of :meth:`_ensure_frames`.

        Returns ``(ok, t)``.  Reclaim episodes are committed whole or
        not started: ``stats.reclaim_episodes`` is identity-compared,
        so the only safe stop is *between* episodes, guarded by a
        whole-episode duration bound — under the flat-seek model each
        evicted page costs at most one positioning plus one transfer
        plus the per-request overhead, and an episode never evicts
        more than its deficit.  ``(False, t)`` means the scalar loop
        must take over before the next episode.
        """
        frames = self.frames
        params = self.disk.params
        per_page = (params.overhead_s + params.positioning_s
                    + params.page_transfer_s)
        stale_retries = 0
        while True:
            if (frames.free >= incoming
                    and not frames.below_min(incoming)):
                return True, t
            deficit = frames.deficit_to_high(incoming)
            if not t + deficit * per_page < deadline:
                return False, t
            progress, t = self._eager_reclaim_episode(deficit, t)
            if progress > 0:
                stale_retries = 0
                continue
            if frames.free >= incoming:
                return True, t
            if self._reclaim_saw_candidates:
                # unreachable with the shipped policies (a closed pass
                # cannot make victims go stale), but mirrored from
                # _ensure_frames for safety: back off one positioning
                # time and retry
                stale_retries += 1
                if stale_retries > 100_000:
                    raise OutOfFramesError(
                        f"livelock: need {incoming} frames, "
                        f"{frames.free} free after "
                        f"{stale_retries} stale reclaim rounds"
                    )
                t2 = t + params.positioning_s
                if not t2 < deadline:
                    return False, t
                t = t2
                self.env.events_absorbed += 1
                continue
            raise OutOfFramesError(
                f"need {incoming} frames, {frames.free} free, "
                "and nothing is evictable"
            )

    def _eager_reclaim_episode(self, count: int, t: float):
        """One :meth:`reclaim` episode applied eagerly.

        Same selector calls, same batch walk, same statistics — the
        per-batch lock acquisition and disk writes are absorbed instead
        of dispatched.  Returns ``(progress, t)``.
        """
        self.stats.reclaim_episodes += 1
        remaining = count
        total = 0
        self._reclaim_saw_candidates = False
        while remaining > 0:
            selector = self.victim_selector or self.policy.select_victims
            batches = selector(
                self.tables, remaining, self.params.swap_cluster,
                self._active_protect(None),
            )
            if not batches:
                break
            self._reclaim_saw_candidates = True
            progress, t = self._eager_evict_batches(batches, t)
            if progress == 0:
                break
            remaining -= progress
            total += progress
        return total, t

    def _eager_evict_batches(self, batches, t: float):
        """Apply one selector call's victim batches, one same-pid span
        at a time through :meth:`_eager_evict_span`.  Returns
        ``(progress, t)``."""
        progress = 0
        for pid, span in groupby(batches, key=attrgetter("pid")):
            p, t = self._eager_evict_span(pid, list(span), t)
            progress += p
        return progress, t

    def _eager_evict_span(self, pid: int, span, t: float):
        """Eager mirror of consecutive same-pid :meth:`evict_batch`
        calls (flush mode, foreground), committed as one vectorised
        pass.  Returns ``(evicted, t)``.

        The eviction lock is free by the eager precondition and grants
        synchronously, so each batch costs exactly the one lock-grant
        wakeup absorbed here, whether or not it evicts anything.
        Revalidation drops, per batch, the pages that are not resident,
        the pages an in-flight demand holds (demands cannot change
        inside a closed pass, so there is no post-write recheck) and the
        pages an earlier batch of the span already took.  Each batch's
        write goes out as one request at the running clock; contiguous
        write sets use the chained head model of
        :meth:`~repro.disk.device.Disk.eager_run_times`, fragmented swap
        the general walk of :meth:`~repro.disk.device.Disk.eager_times_list`.
        """
        nb = len(span)
        self.env.events_absorbed += nb
        table = self.tables.get(pid)
        if table is None:
            return 0, t
        sizes = np.array([b.pages.size for b in span], dtype=np.int64)
        offsets = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        pages = (np.concatenate([b.pages for b in span]) if nb > 1
                 else span[0].pages)
        keep = table.present[pages] & (self._demand_counts[pid][pages] == 0)
        if nb > 1:
            srt = np.sort(pages)
            if not (srt[1:] > srt[:-1]).all():
                # a repeated page stays only in the batch listing it first
                _, first, inverse = np.unique(
                    pages, return_index=True, return_inverse=True)
                keep &= first[inverse] >= np.repeat(offsets[:-1], sizes)
        if not keep.all():
            pages = pages[keep]
            sizes = _segment_sums(keep, offsets)
            np.cumsum(sizes, out=offsets[1:])
        if pages.size == 0:
            return 0, t
        no_slot = table.swap_slot[pages] < 0
        if no_slot.any():
            # per-batch allocations in batch order: the allocator call
            # sequence (and therefore slot placement) matches the
            # scalar walk exactly
            offs = offsets.tolist()
            for k in range(nb):
                seg = no_slot[offs[k]:offs[k + 1]]
                if seg.any():
                    need = pages[offs[k]:offs[k + 1]][seg]
                    table.assign_slots(need, self.swap.allocate(need.size))
        needs_write = table.dirty[pages] | no_slot
        w_sizes = _segment_sums(needs_write, offsets)
        wk = np.flatnonzero(w_sizes)
        if wk.size:
            to_write = pages[needs_write]
            w_slots = table.swap_slot[to_write]
            w_off = np.zeros(nb + 1, dtype=np.int64)
            np.cumsum(w_sizes, out=w_off[1:])
            # minimum/maximum.reduceat segments run from one write
            # batch's start to the next; interleaved write-free (or
            # emptied) batches contribute no slots, so each segment is
            # exactly one batch's write set
            seg_starts = w_off[wk]
            sz = w_sizes[wk]
            mins = np.minimum.reduceat(w_slots, seg_starts)
            maxs = np.maximum.reduceat(w_slots, seg_starts)
            if bool(((maxs - mins) == sz - 1).all()):
                slots_list = [np.arange(m, m + s)
                              for m, s in zip(mins.tolist(), sz.tolist())]
                durations, seeks = self.disk.eager_run_times(
                    mins, sz, "write")
            else:
                # fragmented swap scattered some batch's slots: walk
                # the general head model instead (sorted segments, one
                # per write batch — write-free batches are empty)
                bounds = np.append(seg_starts, w_slots.size).tolist()
                slots_list = [np.sort(w_slots[a:b])
                              for a, b in zip(bounds[:-1], bounds[1:])]
                durations, seeks = self.disk.eager_times_list(
                    slots_list, "write")
            acc = np.add.accumulate(np.concatenate(([t], durations)))
            self.disk.commit_eager_run(
                slots_list,
                sz, durations, seeks, acc[:-1], acc[1:], "write",
                PRIO_FOREGROUND, pid=pid,
            )
            w_total = int(sz.sum())
            self.stats.pages_swapped_out += w_total
            self._c_pages_out.inc(w_total)
            table.mark_clean(to_write)
            # a batch's pages are stamped at the running clock after
            # its own write (write-free batches inherit the previous
            # completion)
            stamps = acc[np.searchsorted(wk, np.arange(nb), side="right")]
            t = float(acc[-1])
        else:
            w_total = 0
            stamps = np.full(nb, t)
        total = int(sizes.sum())
        self.stats.pages_discarded += total - w_total
        self.stats.evictions += total
        self._c_discarded.inc(total - w_total)
        self._c_evictions.inc(total)
        if self.on_flush is not None:
            offs = offsets.tolist()
            for k in range(nb):
                if offs[k] < offs[k + 1]:
                    self.on_flush(pid, pages[offs[k]:offs[k + 1]])
        self._evicted_at[pid][pages] = np.repeat(stamps, sizes)
        self._ever_evicted.add(pid)
        table.evict(pages)
        self.frames.release(total)
        return total, t

    def swap_in_block(self, pid: int, groups):
        """Process fragment: service pre-planned block swap-ins.

        Used by adaptive page-in (§3.3): ``groups`` comes from
        :func:`repro.mem.readahead.plan_block_reads`.  The paper induces
        *faults* for the recorded pages, so each page counts as
        referenced at page-in time (otherwise an LRU baseline would
        treat the prefetched pages as the oldest in memory and evict
        them right back out).
        """
        table = self.tables[pid]
        for group in groups:
            # Skip pages that became resident since planning.
            mask = ~table.present[group.pages]
            pages = group.pages[mask]
            if pages.size == 0:
                continue
            slots = group.slots[mask]
            entry = (pid, pages)
            self._add_demand(entry)
            allocated = False
            try:
                if (self.frames.free < pages.size
                        or self.frames.below_min(pages.size)):
                    yield from self._ensure_frames(pages.size)
                self.frames.allocate(pages.size)
                allocated = True
                req = self.disk.submit(slots, "read", PRIO_FOREGROUND, pid=pid)
                yield req
            except Exception:
                if allocated:
                    self.frames.release(pages.size)
                raise
            finally:
                self._remove_demand(entry)
            self.stats.major_faults += 1
            self.stats.pages_swapped_in += pages.size
            self._c_major.inc()
            self._c_pages_in.inc(pages.size)
            self._count_refaults(pid, pages)
            table.make_resident(pages)
            table.set_last_ref(pages, self.env.now)

    # ------------------------------------------------------------------
    # reclaim / page-out
    # ------------------------------------------------------------------
    def _add_demand(self, entry) -> None:
        """Register an in-flight demand set.

        Must pair with :meth:`_remove_demand` on the same entry object.
        Duplicate page numbers within one entry are fine: fancy-index
        ``+=``/``-=`` touch each unique index once on both sides, so
        the counts stay symmetric.
        """
        self._active_demands.append(entry)
        pid, pages = entry
        self._demand_counts[pid][pages] += 1

    def _remove_demand(self, entry) -> None:
        """Remove ``entry`` from the in-flight demand list by identity
        (tuple equality would compare numpy arrays elementwise)."""
        for i, e in enumerate(self._active_demands):
            if e is entry:
                del self._active_demands[i]
                pid, pages = entry
                counts = self._demand_counts.get(pid)
                if counts is not None:
                    counts[pages] -= 1
                if self._demand_waiters:
                    self._settle_waiter(pid)
                return
        if id(entry) in self._purged_demands:
            # the owning process was unregistered mid-service; the entry
            # (and its count array) are already gone
            self._purged_demands.discard(id(entry))
            return
        raise ValueError("demand entry not registered")

    def demand_settled(self, pid: int) -> Optional[Event]:
        """Event that fires when an in-flight demand of ``pid`` ends, or
        ``None`` when ``pid`` has none in flight."""
        if not any(p == pid for p, _ in self._active_demands):
            return None
        ev = self._demand_waiters.get(pid)
        if ev is None:
            ev = self._demand_waiters[pid] = self.env.event()
        return ev

    def _settle_waiter(self, pid: int) -> None:
        ev = self._demand_waiters.pop(pid, None)
        if ev is not None:
            ev.succeed()

    def _active_protect(
        self, extra: Optional[Mapping[int, np.ndarray]] = None
    ) -> dict[int, np.ndarray]:
        """Union of all in-flight demand sets (plus ``extra``), by pid."""
        demands = self._active_demands
        if not extra:
            # fast paths for the overwhelmingly common shapes
            if not demands:
                return {}
            if len(demands) == 1:
                pid, pages = demands[0]
                return {pid: pages}
        merged: dict[int, list[np.ndarray]] = {}
        for pid, pages in demands:
            merged.setdefault(pid, []).append(pages)
        if extra:
            for pid, pages in extra.items():
                merged.setdefault(pid, []).append(
                    np.asarray(pages, dtype=np.int64)
                )
        return {
            pid: arrs[0] if len(arrs) == 1 else np.concatenate(arrs)
            for pid, arrs in merged.items()
        }

    def _ensure_frames(self, incoming: int):
        """Process fragment: reclaim until ``incoming`` frames can be
        allocated without breaching the ``freepages.min`` watermark.

        Loops because a concurrent fault may consume frames we just
        freed while we waited on the eviction lock, and because another
        reclaimer may steal our selected victims (stale batches) — in
        that case the world is still making progress, so back off for
        one disk-positioning time and retry rather than giving up.
        """
        stale_retries = 0
        while True:
            if (self.frames.free >= incoming
                    and not self.frames.below_min(incoming)):
                return
            deficit = self.frames.deficit_to_high(incoming)
            progress = yield from self.reclaim(deficit)
            if progress > 0:
                stale_retries = 0
                continue
            if self.frames.free >= incoming:
                return  # cannot reach the watermark, but we fit
            if self._reclaim_saw_candidates:
                stale_retries += 1
                if stale_retries > 100_000:
                    raise OutOfFramesError(
                        f"livelock: need {incoming} frames, "
                        f"{self.frames.free} free after "
                        f"{stale_retries} stale reclaim rounds"
                    )
                yield self.env.timeout(self.disk.params.positioning_s)
                continue
            raise OutOfFramesError(
                f"need {incoming} frames, {self.frames.free} free, "
                "and nothing is evictable"
            )

    def reclaim(self, count: int,
                protect: Optional[Mapping[int, np.ndarray]] = None,
                priority: int = PRIO_FOREGROUND):
        """Process fragment: evict ~``count`` pages via the active policy.

        Pages belonging to any in-flight fault service are always
        protected, in addition to the caller-supplied ``protect`` map.
        Returns the number of pages evicted.
        """
        if count <= 0:
            return 0
        self.stats.reclaim_episodes += 1
        remaining = count
        total = 0
        self._reclaim_saw_candidates = False
        while remaining > 0:
            selector = self.victim_selector or self.policy.select_victims
            batches = selector(
                self.tables, remaining, self.params.swap_cluster,
                self._active_protect(protect),
            )
            if not batches:
                break  # nothing evictable (all resident pages protected)
            self._reclaim_saw_candidates = True
            progress = 0
            for batch in batches:
                progress += yield from self.evict_batch(batch, priority)
            if progress == 0:
                # victims went stale (a concurrent reclaim consumed
                # them first); the caller decides whether to retry
                break
            remaining -= progress
            total += progress
        return total

    def evict_batch(self, batch: VictimBatch,
                    priority: int = PRIO_FOREGROUND,
                    keep_resident: bool = False):
        """Process fragment: write out / discard one victim batch.

        Dirty pages (or pages with no swap copy yet) are written in a
        single disk request; clean pages with valid swap copies are
        discarded free of I/O.  With ``keep_resident=True`` the pages
        stay in memory and only the dirty ones are cleaned — this is the
        §3.4 background-writing mode.

        Evictions are serialised VMM-wide; victims selected before the
        lock wait are re-validated afterwards.  Returns the number of
        pages actually evicted, or in keep-resident mode the number of
        pages written and marked clean.
        """
        lock = self._evict_lock.request()
        try:
            yield lock
        except BaseException:
            # An interrupt can land while we are suspended at this yield
            # *after* the resource already granted the slot (grants are
            # synchronous; the wakeup event is still in the queue).  The
            # slot must not leak: release() cancels a pending request and
            # frees a granted one, so both states are safe here.
            self._evict_lock.release(lock)
            raise
        try:
            table = self.tables.get(batch.pid)
            if table is None:
                return 0  # process exited while we waited
            # Re-validate: drop victims that were evicted, exited or are
            # now part of an in-flight fault's demand set.  The fancy-
            # index copies are skipped when nothing went stale — the
            # overwhelmingly common case on this hot path.
            pages = batch.pages
            present = table.present[pages]
            if not present.all():
                pages = pages[present]
            counts = self._demand_counts[batch.pid]
            if pages.size:
                demanded = counts[pages]
                if demanded.any():
                    pages = pages[demanded == 0]
            if pages.size == 0:
                return 0

            no_slot_mask = table.swap_slot[pages] < 0
            needs_write = table.dirty[pages] | no_slot_mask
            to_write = pages[needs_write]
            if to_write.size:
                # a page with no swap copy always needs a write, so the
                # no-slot subset of `pages` equals the no-slot subset of
                # `to_write` (same order) — one gather instead of two
                no_slot = pages[no_slot_mask]
                if no_slot.size:
                    new_slots = self.swap.allocate(no_slot.size)
                    table.assign_slots(no_slot, new_slots)
                slots = table.swap_slot[to_write]
                req = self.disk.submit(slots, "write", priority, pid=batch.pid)
                yield req
                if batch.pid not in self.tables:
                    return 0  # process exited during the write
                self.stats.pages_swapped_out += to_write.size
                self._c_pages_out.inc(to_write.size)
                table.mark_clean(to_write)

            if keep_resident:
                # Background cleaning (§3.4): pages stay in memory, so
                # this is not a flush and must not reach the recorder.
                return int(to_write.size)

            if to_write.size:
                # A fault service may have started demanding some of
                # these pages while the write was in flight; they were
                # written (wasted I/O) but must stay resident.
                counts = self._demand_counts[batch.pid]
                demanded = counts[pages]
                if demanded.any():
                    pages = pages[demanded == 0]
                    to_write = to_write[counts[to_write] == 0]
                if pages.size == 0:
                    return 0

            self.stats.pages_discarded += pages.size - to_write.size
            self.stats.evictions += pages.size
            self._c_discarded.inc(pages.size - to_write.size)
            self._c_evictions.inc(pages.size)
            if self.on_flush is not None:
                self.on_flush(batch.pid, pages)
            self._evicted_at[batch.pid][pages] = self.env.now
            self._ever_evicted.add(batch.pid)
            table.evict(pages)
            self.frames.release(pages.size)
            return int(pages.size)
        finally:
            self._evict_lock.release(lock)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _count_refaults(self, pid: int, pages: np.ndarray,
                        now: Optional[float] = None) -> None:
        if pid not in self._ever_evicted:
            return  # nothing evicted yet: no gather needed
        if now is None:
            now = self.env.now
        evicted = self._evicted_at[pid][pages]
        recent = now - evicted < self.refault_window_s
        n = int(np.count_nonzero(recent))
        self.stats.refaults += n
        if n:
            self._c_refaults.inc(n)

    def check_invariants(self) -> None:
        """Cross-structure consistency checks (used by property tests)."""
        resident = self.resident_pages_total()
        assert resident == self.frames.used, (
            f"frame accounting drift: tables={resident} pool={self.frames.used}"
        )
        all_slots = []
        for table in self.tables.values():
            table.check_invariants()
            s = table.swap_slot[table.swap_slot >= 0]
            all_slots.append(s)
        if all_slots:
            merged = np.concatenate(all_slots)
            assert len(np.unique(merged)) == merged.size, (
                "swap slot shared between processes"
            )
            assert merged.size == self.swap.used_slots, (
                f"swap accounting drift: tables={merged.size} "
                f"allocator={self.swap.used_slots}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"VMM({self.name}, procs={len(self.tables)}, "
            f"free={self.frames.free}/{self.frames.total})"
        )


__all__ = ["FaultStats", "VirtualMemoryManager"]
