"""A compute node: CPU + memory + paging disk + adaptive paging.

Matches the paper's setup: every node runs its own kernel instance
(VMM + disk) with the adaptive-paging extension; the user-level gang
scheduler coordinates them from outside (§3.5, Fig. 5).

Health
------
A node can *crash* (fail-stop: :meth:`Node.fail`) or *straggle*
(:attr:`Node.slowdown` > 1 for a quantum).  Both states are set by the
fault-injection layer (or by tests) and *observed* by the gang
scheduler at quantum boundaries — the node itself takes no scheduling
action, exactly as a dead machine would not.
"""

from __future__ import annotations

from typing import Optional

from repro.core.api import AdaptivePaging
from repro.core.policies import PagingPolicy
from repro.disk.device import Disk, DiskParams, DiskRequest
from repro.faults.plan import FaultPlan
from repro.mem.params import MemoryParams
from repro.mem.replacement import ReplacementPolicy
from repro.mem.vmm import VirtualMemoryManager
from repro.obs.registry import NULL_OBS
from repro.sim.engine import Environment


class Node:
    """One machine of the cluster."""

    def __init__(
        self,
        env: Environment,
        name: str,
        memory: MemoryParams,
        policy: PagingPolicy | str = "lru",
        disk_params: Optional[DiskParams] = None,
        replacement: Optional[ReplacementPolicy] = None,
        on_disk_complete=None,
        refault_window_s: float = 150.0,
        disk_discipline: str = "fifo",
        faults: Optional[FaultPlan] = None,
        obs=NULL_OBS,
    ) -> None:
        self.env = env
        self.name = name
        self.obs = obs
        self.disk = Disk(
            env, disk_params or DiskParams(),
            on_complete=on_disk_complete, name=f"{name}.disk",
            faults=faults, obs=obs, discipline=disk_discipline,
        )
        self.vmm = VirtualMemoryManager(
            env, memory, self.disk, policy=replacement, name=f"{name}.vmm",
            refault_window_s=refault_window_s, obs=obs,
        )
        self.adaptive = AdaptivePaging(self.vmm, policy, faults=faults,
                                       obs=obs)
        #: False once the node has fail-stopped
        self.alive = True
        #: why the node died (None while alive)
        self.failure: Optional[str] = None
        #: CPU slowdown factor for the current quantum (1.0 = healthy);
        #: reset by the gang scheduler at every quantum boundary
        self.slowdown = 1.0

    def fail(self, cause: str = "crash") -> None:
        """Fail-stop the node (idempotent).

        The simulation keeps the node's kernel state around — in-flight
        disk work completes — but the scheduler will evict every job
        with a rank here at the next quantum boundary.
        """
        if self.alive:
            self.alive = False
            self.failure = str(cause)

    @classmethod
    def build(
        cls,
        env: Environment,
        name: str,
        memory_mb: float,
        policy: PagingPolicy | str = "lru",
        **kw,
    ) -> "Node":
        """Convenience factory taking memory in MB (the paper's usable
        memory after the mlock() reduction, e.g. 350)."""
        return cls(env, name, MemoryParams.from_mb(memory_mb), policy, **kw)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.alive else "down"
        return f"Node({self.name}, policy={self.adaptive.policy.name}, {state})"


__all__ = ["Node"]
