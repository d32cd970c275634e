"""Microbenchmarks of the simulation substrates.

Not a paper figure — these track the performance of the hot paths that
bound every experiment's wall-clock time: the event loop, the disk
service model, the fault planner and the reclaim path.
"""

import numpy as np

from repro.disk import Disk, DiskParams, SwapAllocator
from repro.mem import MemoryParams, PageTable, VirtualMemoryManager
from repro.mem.readahead import plan_swapins
from repro.sim import Environment


def test_engine_event_throughput(benchmark):
    """Schedule and drain 20k chained timeouts."""

    def run():
        env = Environment()

        def ticker(env, n):
            for _ in range(n):
                yield env.timeout(1.0)

        for _ in range(4):
            env.process(ticker(env, 5000))
        env.run()
        return env.now

    result = benchmark(run)
    assert result == 5000.0


def test_disk_service_throughput(benchmark):
    """Service 2 000 scattered read requests."""

    def run():
        env = Environment()
        disk = Disk(env, DiskParams())
        for i in range(2000):
            disk.submit(np.arange(i * 40, i * 40 + 16), "read")
        env.run()
        return disk.total_requests

    assert benchmark(run) == 2000


def test_swap_allocator_churn(benchmark):
    """Allocate/free 4 000 runs with fragmentation."""

    def run():
        s = SwapAllocator(1 << 18)
        live = []
        for i in range(4000):
            live.append(s.allocate(32))
            if len(live) > 64:
                # free an interior run to fragment the free space
                s.free(live.pop(i % 64))
        for arr in live:
            s.free(arr)
        return s.free_slots

    assert benchmark(run) == 1 << 18


def test_fault_planning(benchmark):
    """Plan read-ahead groups for a 32k-page swapped table."""
    table = PageTable(1, 1 << 16)
    pages = np.arange(32768)
    table.make_resident(pages)
    table.record_access(pages, 1.0)
    table.assign_slots(pages, np.arange(32768) * 2)  # gappy slots
    table.evict(pages)

    def run():
        return plan_swapins(table, pages, window=16)

    plan = benchmark(run)
    assert len(plan) > 1000
    assert plan.read.all()
    assert plan.bounds[-1] >= pages.size


def test_vmm_fault_path(benchmark):
    """Fault 16k pages through the full VMM + disk stack."""

    def run():
        env = Environment()
        disk = Disk(env, DiskParams())
        vmm = VirtualMemoryManager(
            env, MemoryParams(total_frames=8192), disk
        )
        vmm.register_process(1, 32768)

        def proc():
            for lo in range(0, 32768, 4096):
                yield from vmm.touch(
                    1, np.arange(lo, lo + 4096), dirty=True
                )

        p = env.process(proc())
        env.run(until=p)
        return vmm.stats.minor_faults

    assert benchmark(run) == 32768
