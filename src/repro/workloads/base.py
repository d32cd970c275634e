"""Phase-based memory reference traces.

Simulating minutes of execution at per-reference granularity is
infeasible in Python; instead a process executes *phases*.  Each phase
names the page ranges it touches (with a dirty flag per range), the CPU
time it burns, and whether it ends at a barrier.  The VMM resolves a
phase's faults with vectorised set operations, so simulated time stays
decoupled from wall-clock cost.

Phases must be small enough to fit in memory alongside the reclaim
watermarks (the VMM enforces this); :func:`chunk_ranges` splits long
sweeps accordingly while preserving touch order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class PageRange:
    """A half-open page interval ``[start, stop)`` with a dirty flag."""

    start: int
    stop: int
    dirty: bool = False

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ValueError(f"invalid range [{self.start}, {self.stop})")

    @property
    def npages(self) -> int:
        return self.stop - self.start

    def pages(self) -> np.ndarray:
        """Expand the range into its page numbers."""
        return np.arange(self.start, self.stop, dtype=np.int64)


@dataclass(frozen=True)
class Phase:
    """One unit of execution: touch ranges, compute, maybe synchronise."""

    ranges: tuple[PageRange, ...]
    cpu_s: float
    #: ends at an MPI-style barrier shared by all ranks of the job
    barrier: bool = False
    #: per-rank communication time paid at the barrier (network model)
    comm_s: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.cpu_s < 0 or self.comm_s < 0:
            raise ValueError("cpu_s and comm_s must be non-negative")

    @property
    def npages(self) -> int:
        return sum(r.npages for r in self.ranges)


#: memo for :func:`expand_phase`, keyed by the (frozen, hashable) phase:
#: one ``(pages, dirty_mask, index, dirty_flag)`` entry per phase.
#: Iterative workloads touch the same phases every iteration, and the
#: expansion's dedup pass shows up in profiles.  Cleared wholesale when
#: it outgrows the cap so long sweeps over many workloads stay bounded.
_EXPAND_CACHE: dict[Phase, tuple] = {}
_EXPAND_CACHE_MAX = 512


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


#: the expansion of a phase that touches no page
_EMPTY_EXPANSION = (
    _read_only(np.empty(0, dtype=np.int64)),
    _read_only(np.empty(0, dtype=bool)),
    slice(0, 0),
    False,
)


def expand_phase(phase: Phase, *, indexed: bool = False) -> tuple:
    """Expand a phase into ``(pages, dirty_mask)`` in touch order.

    A page appearing in several ranges is touched once (first
    occurrence); it is dirty if *any* containing range dirties it.
    The returned arrays are cached (and marked read-only): callers
    treat them as immutable views of the phase.

    With ``indexed=True`` the result is ``(pages, dirty_mask, index,
    dirty_flag)``, the forms :meth:`PageTable.record_access_runs
    <repro.mem.page_table.PageTable.record_access_runs>` stamps with:
    ``index`` is ``slice(pages[0], pages[-1] + 1)`` when ``pages`` is
    one ascending contiguous run and ``pages`` itself otherwise, and
    ``dirty_flag`` is a plain bool when the mask is uniform and the
    mask otherwise.  Indexing a page-state array with ``index`` selects
    the same pages in the same order as ``pages``.
    """
    entry = _EXPAND_CACHE.get(phase)
    if entry is None:
        entry = _expand(phase)
        if len(_EXPAND_CACHE) >= _EXPAND_CACHE_MAX:
            _EXPAND_CACHE.clear()
        _EXPAND_CACHE[phase] = entry
    return entry if indexed else entry[:2]


def _expand(phase: Phase) -> tuple:
    """The uncached :func:`expand_phase` entry of ``phase``."""
    ranges = phase.ranges
    if not ranges:
        return _EMPTY_EXPANSION
    pages = np.concatenate([r.pages() for r in ranges])
    dirty = np.concatenate(
        [np.full(r.npages, r.dirty, dtype=bool) for r in ranges]
    )
    # sorted by start, two ranges share a page iff one starts before
    # its predecessor stops
    spans = sorted((r.start, r.stop) for r in ranges)
    if any(b[0] < a[1] for a, b in zip(spans, spans[1:])):
        # de-duplicate, keeping touch order and OR-ing dirty flags
        uniq, first = np.unique(pages, return_index=True)
        order = np.sort(first)
        out_pages = pages[order]
        # map occurrences to their first occurrence and OR dirty bits
        inv = np.searchsorted(uniq, pages)
        dirty_by_uniq = np.zeros(uniq.size, dtype=bool)
        np.logical_or.at(dirty_by_uniq, inv, dirty)
        out_dirty = dirty_by_uniq[np.searchsorted(uniq, out_pages)]
        pages, dirty = out_pages, out_dirty
    pages, dirty = _read_only(pages), _read_only(dirty)
    if (np.diff(pages) == 1).all():
        index = slice(int(pages[0]), int(pages[-1]) + 1)
    else:
        index = pages
    if dirty.all():
        flag = True
    elif not dirty.any():
        flag = False
    else:
        flag = dirty
    return pages, dirty, index, flag


def chunk_ranges(
    ranges: Sequence[PageRange],
    max_pages: int,
    cpu_s: float,
    barrier: bool = False,
    comm_s: float = 0.0,
    label: str = "",
) -> list[Phase]:
    """Split ``ranges`` into phases touching at most ``max_pages`` each.

    ``cpu_s`` is distributed across chunks proportionally to page count.
    Only the final chunk carries the barrier/comm cost.
    """
    if max_pages <= 0:
        raise ValueError("max_pages must be positive")
    # flatten into (start, stop, dirty) pieces no larger than max_pages
    pieces: list[PageRange] = []
    for r in ranges:
        for s in range(r.start, r.stop, max_pages):
            pieces.append(PageRange(s, min(r.stop, s + max_pages), r.dirty))

    total = sum(p.npages for p in pieces)
    phases: list[Phase] = []
    acc: list[PageRange] = []
    acc_pages = 0

    def flush(last: bool) -> None:
        nonlocal acc, acc_pages
        if not acc:
            return
        share = cpu_s * (acc_pages / total) if total else 0.0
        phases.append(
            Phase(
                tuple(acc),
                cpu_s=share,
                barrier=barrier and last,
                comm_s=comm_s if last else 0.0,
                label=label,
            )
        )
        acc, acc_pages = [], 0

    for i, piece in enumerate(pieces):
        if acc_pages + piece.npages > max_pages:
            flush(last=False)
        acc.append(piece)
        acc_pages += piece.npages
    flush(last=True)
    return phases


class Workload:
    """Base class: a named, finite sequence of phases.

    Subclasses implement :meth:`iteration_phases`; the full program is
    that iteration repeated ``iterations`` times (plus an optional
    initialisation touch of the whole footprint).
    """

    def __init__(
        self,
        name: str,
        footprint_pages: int,
        iterations: int,
        max_phase_pages: int = 8192,
        init_touch: bool = True,
    ) -> None:
        if footprint_pages <= 0:
            raise ValueError("footprint_pages must be positive")
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        self.name = name
        self.footprint_pages = int(footprint_pages)
        self.iterations = int(iterations)
        self.max_phase_pages = int(max_phase_pages)
        self.init_touch = init_touch

    def iteration_phases(self, it: int,
                         rng: np.random.Generator) -> Iterable[Phase]:
        """Phases of one iteration (subclass responsibility)."""
        raise NotImplementedError

    def phases(self, rng: np.random.Generator) -> Iterator[Phase]:
        """The whole program's phases, chunked and in order."""
        if self.init_touch:
            # initial data placement: touch (and dirty) the footprint
            yield from chunk_ranges(
                [PageRange(0, self.footprint_pages, dirty=True)],
                self.max_phase_pages,
                cpu_s=1e-6 * self.footprint_pages,
                label=f"{self.name}:init",
            )
        for it in range(self.iterations):
            yield from self.iteration_phases(it, rng)

    def total_phases(self, rng: np.random.Generator) -> int:
        """Count phases (consumes a fresh iterator)."""
        return sum(1 for _ in self.phases(rng))

    def scale_in_place(self, factor: float, min_pages: int = 64) -> "Workload":
        """Proportionally shrink/grow this workload (footprint and any
        absolute CPU demand) for fast runs.  Subclasses with absolute
        per-iteration CPU override :meth:`_scale_cpu`.  Returns self.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        self.footprint_pages = max(min_pages,
                                   int(self.footprint_pages * factor))
        self._scale_cpu(factor)
        return self

    def _scale_cpu(self, factor: float) -> None:
        """Hook: scale absolute CPU demands.  Workloads whose CPU is
        per-page need no change (it follows the footprint)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"pages={self.footprint_pages}, iters={self.iterations})"
        )


__all__ = ["PageRange", "Phase", "Workload", "chunk_ranges", "expand_phase"]
