"""Host-time accounting per simulator layer, from outside the program.

A :class:`Tracer` replaces a layer's public entry points with timing
wrappers for the length of a traced pass and restores the originals
afterwards, so untraced passes run unmodified code.  Each wrapper pushes
a frame on one timer stack; when the frame pops, its elapsed time minus
the time of frames nested inside it is the entry's *self time*.

Generator entry points (``VMM.touch``, ``evict_batch``, the adaptive
page-out/in fragments, ...) return before doing any work, so wrapping
the call would time only generator creation.  Their wrapper instead
drives the generator by hand and times every resume (``send``/``throw``),
popping the frame at each ``yield``: time spent suspended never counts,
and work done on resume lands in the entry that owns the frame.

Wrappers are installed at the name the caller looks up (a class
attribute, or the importing module's global for functions imported with
``from ... import``), before the cell is built, so bound methods cached
during construction are wrapped too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable

#: (layer metric prefix, module, attribute path) of every timed entry
#: point.  Several entries may share one prefix; their counts add up.
LAYER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("sim.step", "repro.sim.engine", "Environment.step"),
    ("mem.touch", "repro.mem.vmm", "VirtualMemoryManager.touch"),
    ("mem.touch_fast", "repro.mem.vmm", "VirtualMemoryManager.touch_fast"),
    ("mem.reclaim", "repro.mem.vmm", "VirtualMemoryManager.reclaim"),
    ("mem.evict_batch", "repro.mem.vmm", "VirtualMemoryManager.evict_batch"),
    ("mem.swap_in_block", "repro.mem.vmm",
     "VirtualMemoryManager.swap_in_block"),
    ("mem.readahead", "repro.mem.vmm", "plan_swapins_fused"),
    ("mem.readahead", "repro.core.api", "plan_block_reads"),
    ("mem.select_victims", "repro.mem.replacement",
     "GlobalLruPolicy.select_victims"),
    ("mem.select_victims", "repro.mem.replacement",
     "LargestProcessClockPolicy.select_victims"),
    ("mem.select_victims", "repro.mem.replacement",
     "PageAgingPolicy.select_victims"),
    ("core.adaptive_page_out", "repro.core.api",
     "AdaptivePaging.adaptive_page_out"),
    ("core.adaptive_page_in", "repro.core.api",
     "AdaptivePaging.adaptive_page_in"),
    ("core.ao_run", "repro.core.aggressive", "AggressivePageOut.run"),
    ("core.so_select", "repro.core.selective", "SelectivePageOut.__call__"),
    ("core.bgwrite", "repro.core.api", "AdaptivePaging.start_bgwrite"),
    ("core.bgwrite", "repro.core.api", "AdaptivePaging.stop_bgwrite"),
    ("disk.submit", "repro.disk.device", "Disk.submit"),
    ("disk.service_time_for", "repro.disk.device", "Disk.service_time_for"),
    ("disk.eager", "repro.disk.device", "Disk.eager_run_times"),
    ("disk.eager", "repro.disk.device", "Disk.commit_eager_run"),
    ("disk.eager", "repro.disk.device", "Disk.service_eager"),
    ("workloads.expand_phase", "repro.gang.job", "expand_phase"),
    ("workloads.build", "repro.experiments.runner", "make_npb"),
    ("workloads.build", "repro.workloads.base", "Workload.scale_in_place"),
    ("perf.spawn", "repro.perf.persistent", "PersistentExecutor.acquire"),
    ("perf.spec_build", "repro.experiments.multi_seed", "cell_grid"),
    ("perf.spec_build", "repro.perf.persistent", "SpecTable"),
    ("perf.dispatch", "repro.perf.persistent", "PersistentExecutor.dispatch"),
    ("perf.poll", "repro.perf.persistent", "PersistentExecutor.poll"),
    ("perf.backend", "repro.perf.backend", "PersistentBackend.run"),
    ("perf.run_cells", "repro.experiments.multi_seed", "run_cells"),
    ("perf.replicate", "repro.experiments.multi_seed", "replicate"),
)

#: the disk completion hooks are closures the collector creates per
#: node, so they are wrapped right after ``attach_node`` installs them
HOOK_NAME = "metrics.hook"
HOOK_ATTRS = ("on_complete", "on_complete_run")

_MISSING = object()


def resolve(module: str, path: str) -> tuple[object, str]:
    """The owner object and attribute name that ``module:path`` names."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise AttributeError(f"{module}.{path} does not exist")
    return owner, attr


class Tracer:
    """Timer stack plus per-name call counts and self times."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        # frames are [name, start, time of nested frames]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- accounting --------------------------------------------------------
    def _enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def _exit(self) -> None:
        name, start, nested = self._stack.pop()
        elapsed = self.clock() - start
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed

    def _count(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    # -- wrapping ----------------------------------------------------------
    def wrap(self, fn: Callable, name: str) -> Callable:
        """A timed stand-in for ``fn`` charging its self time to ``name``."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def timed_generator(*args, **kwargs):
                self._count(name)
                return self._resumes(fn(*args, **kwargs), name)
            return timed_generator

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._count(name)
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return timed

    def _resumes(self, gen, name: str):
        """Drive ``gen`` like ``yield from``, timing each resume."""
        value = None
        thrown = None
        while True:
            self._enter(name)
            try:
                if thrown is None:
                    item = gen.send(value)
                else:
                    exc, thrown = thrown, None
                    item = gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                self._exit()
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered to gen unchanged
                value, thrown = None, exc

    # -- installation ------------------------------------------------------
    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` until :meth:`uninstall` restores it."""
        own = vars(owner) if isinstance(owner, type) else None
        previous = own.get(attr, _MISSING) if own is not None \
            else getattr(owner, attr)
        self._patches.append((owner, attr, previous))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every target and the collector's per-node hooks."""
        for name, module, path in LAYER_TARGETS:
            owner, attr = resolve(module, path)
            self.patch(owner, attr, self.wrap(getattr(owner, attr), name))
        from repro.metrics.collector import MetricsCollector

        attach_node = MetricsCollector.attach_node
        tracer = self

        @functools.wraps(attach_node)
        def attach_and_wrap(collector, node):
            attach_node(collector, node)
            for hook_attr in HOOK_ATTRS:
                hook = getattr(node.disk, hook_attr)
                setattr(node.disk, hook_attr, tracer.wrap(hook, HOOK_NAME))

        self.patch(MetricsCollector, "attach_node", attach_and_wrap)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


__all__ = ["HOOK_NAME", "LAYER_TARGETS", "Tracer", "resolve"]
