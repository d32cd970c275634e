"""The adaptive-paging API of §3.5.

One :class:`AdaptivePaging` instance binds a policy combination to one
node's VMM and exposes the four entry points the paper's user-level
gang scheduler invokes through ``/dev/kmem``:

* ``adaptive_page_out(in_pid, out_pid, ws_size)``
* ``adaptive_page_in(in_pid, out_pid, ws_size)``
* ``start_bgwrite(in_pid)``
* ``stop_bgwrite()``

plus scheduling notifications (``notify_scheduled`` /
``notify_descheduled``) that stand in for the kernel observing context
switches, feeding the working-set estimator and gating the page
recorder to non-running processes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.aggressive import AggressivePageOut
from repro.core.background import BackgroundWriter
from repro.core.policies import PagingPolicy
from repro.core.recorder import PageRecorder
from repro.core.selective import SelectivePageOut
from repro.faults.errors import RecordCorrupted
from repro.faults.plan import FaultPlan
from repro.mem.readahead import plan_block_reads
from repro.mem.vmm import VirtualMemoryManager
from repro.mem.working_set import WorkingSetEstimator
from repro.obs.registry import NULL_OBS


class AdaptivePaging:
    """Kernel-side adaptive paging bound to one node's VMM.

    Parameters
    ----------
    vmm:
        The node's virtual memory manager.  Hook points
        (``victim_selector``, ``on_flush``) are installed according to
        the policy flags.
    policy:
        Which mechanisms are active (a :class:`PagingPolicy` or the
        paper's string notation).
    faults:
        Optional fault plan; when set, recorded flush batches may be
        lost or corrupted, and :meth:`adaptive_page_in` degrades to
        plain demand paging on a corrupt record (``ai_fallbacks``
        counts those).
    """

    def __init__(
        self,
        vmm: VirtualMemoryManager,
        policy: PagingPolicy | str = "lru",
        ws_estimator: Optional[WorkingSetEstimator] = None,
        faults: Optional[FaultPlan] = None,
        obs=NULL_OBS,
    ) -> None:
        if isinstance(policy, str):
            policy = PagingPolicy.parse(policy)
        self.vmm = vmm
        self.policy = policy
        self.ws = ws_estimator or WorkingSetEstimator()
        self._running: set[int] = set()
        #: times adaptive page-in fell back to demand paging because its
        #: record was corrupt (the §3.3 graceful-degradation path)
        self.ai_fallbacks = 0
        self._c_ai_runs = obs.counter("ai_runs", node=vmm.name)
        self._c_ai_pages = obs.counter("ai_pages_replayed", node=vmm.name)
        self._c_ai_fallbacks = obs.counter("ai_fallbacks", node=vmm.name)
        self._c_ai_empty = obs.counter("ai_empty_records", node=vmm.name)
        self._h_ai_run = obs.histogram("ai_run_pages", node=vmm.name)

        self.selective: Optional[SelectivePageOut] = None
        self.aggressive: Optional[AggressivePageOut] = None
        self.recorder: Optional[PageRecorder] = None
        self.bgwriter: Optional[BackgroundWriter] = None

        # deadlines published by the gang scheduler for the steady-state
        # fast path: a coalesced resident run must end strictly before
        # the background writer arms and strictly before the quantum cap
        # (see repro.gang.job).  inf == never published (e.g. a policy
        # without bg); each quantum overwrites both before its job runs.
        self.bg_arm_at = float("inf")
        self.run_cap_at = float("inf")

        if policy.so:
            self.selective = SelectivePageOut(
                fallback=vmm.policy, obs=obs, node=vmm.name
            )
            vmm.victim_selector = self.selective
        if policy.ao:
            self.aggressive = AggressivePageOut(vmm, policy.ao_batch, obs=obs)
        if policy.ai:
            self.recorder = PageRecorder(
                faults=faults, owner=vmm.name, obs=obs
            )
            vmm.on_flush = self._on_flush
        if policy.bg:
            self.bgwriter = BackgroundWriter(
                vmm, policy.bg_batch, policy.bg_poll_s, obs=obs
            )

    # ------------------------------------------------------------------
    # scheduling notifications
    # ------------------------------------------------------------------
    def notify_scheduled(self, pid: int) -> None:
        """The gang scheduler resumed ``pid`` on this node."""
        self._running.add(pid)
        self.ws.begin_quantum(pid, self.vmm.env.now)

    def notify_descheduled(self, pid: int) -> None:
        """The gang scheduler stopped ``pid`` on this node."""
        self._running.discard(pid)
        table = self.vmm.tables.get(pid)
        if table is not None:
            self.ws.end_quantum(pid, table, self.vmm.env.now)

    def working_set_estimate(self, pid: int) -> int:
        """Working-set size estimate in pages (§3.2's kernel estimate)."""
        return self.ws.estimate(pid, self.vmm.tables.get(pid))

    # ------------------------------------------------------------------
    # the §3.5 API
    # ------------------------------------------------------------------
    def adaptive_page_out(self, in_pid: int, out_pid: int,
                          ws_pages: Optional[int] = None):
        """Process fragment: run the page-out side of a job switch.

        With ``so`` active, installs the outgoing process as the
        preferred victim for the whole coming quantum; with ``ao``
        active, immediately evicts the outgoing process in blocks until
        the incoming working set fits.
        """
        if in_pid == out_pid:
            return
        if self.selective is not None:
            self.selective.set_outgoing(out_pid)
        if self.aggressive is not None:
            if ws_pages is None:
                ws_pages = self.working_set_estimate(in_pid)
            target = self.aggressive.target_for(ws_pages)
            yield from self.aggressive.run(out_pid, target)

    def adaptive_page_in(self, in_pid: int, out_pid: int,
                         ws_pages: Optional[int] = None):
        """Process fragment: run the page-in side of a job switch.

        With ``ai`` active, replays the recorded flush list of the
        incoming process as induced faults, batched into large
        slot-ordered block reads.  A record that fails its checksum is
        dropped and the process simply demand-pages its working set
        back with the kernel's default 16-page read-ahead.
        """
        if self.recorder is None:
            return
        try:
            recorded = self.recorder.take(in_pid)
        except RecordCorrupted:
            self.ai_fallbacks += 1
            self._c_ai_fallbacks.inc()
            return
        if recorded.size == 0:
            self._c_ai_empty.inc()
            return
        table = self.vmm.tables.get(in_pid)
        if table is None:
            return
        # belt-and-braces against records damaged in ways the checksum
        # cannot see: never replay page numbers outside the process
        recorded = recorded[(recorded >= 0) & (recorded < table.num_pages)]
        if recorded.size == 0:
            return
        if ws_pages is None:
            ws_pages = self.working_set_estimate(in_pid)
        # Cap the prefetch at what memory can hold alongside the pages
        # the process already has resident (and at the working set if
        # we have an estimate): §3.3 aims to "make the entire working
        # set of the process available", not to thrash.
        resident = table.resident_pages()
        cap = (self.vmm.params.total_frames
               - self.vmm.params.freepages_high - resident.size)
        if ws_pages and ws_pages > 0:
            cap = min(cap, ws_pages)
        if cap <= 0:
            return
        if recorded.size > cap:
            recorded = recorded[:cap]
        plan = plan_block_reads(table, recorded, self.policy.ai_batch)
        self._c_ai_runs.inc()
        self._c_ai_pages.inc(int(recorded.size))
        self._h_ai_run.observe(float(recorded.size))
        # The induced faults must not cannibalise the incoming process's
        # own residual working set: the kernel reclaims from the
        # outgoing (still-largest) process while servicing them, so pin
        # the incoming process's pages for the duration of the replay.
        entry = (in_pid, np.concatenate([resident, recorded]))
        self.vmm._add_demand(entry)
        try:
            yield from self.vmm.swap_in_block(in_pid, plan)
        finally:
            self.vmm._remove_demand(entry)

    def start_bgwrite(self, in_pid: int) -> None:
        """Activate background dirty-page writing for ``in_pid``."""
        if self.bgwriter is not None and not self.bgwriter.active:
            self.bgwriter.start(in_pid)

    def stop_bgwrite(self) -> None:
        """Deactivate background writing (idempotent).

        ``bg_arm_at`` is deliberately left alone: the switch path calls
        this in the same timestep the scheduler publishes the coming
        quantum's arm deadline, and the pending ``_bg_timer`` fires at
        that published time regardless.  A leftover finite value from a
        previous quantum is merely conservative (it can only shorten a
        coalesced run), whereas resetting to ``inf`` here would let a
        run span the timer's wakeup and defer page-state stamps past
        the background writer's first scan.
        """
        if self.bgwriter is not None:
            self.bgwriter.stop()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _on_flush(self, pid: int, pages: np.ndarray) -> None:
        # Intra-job paging of the running process is left to the
        # original policy (§2); only flushes of stopped processes are
        # recorded for later adaptive page-in.
        if pid not in self._running:
            self.recorder.record(pid, pages)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AdaptivePaging(policy={self.policy.name}, vmm={self.vmm.name})"


__all__ = ["AdaptivePaging"]
