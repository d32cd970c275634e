"""Tests for the FT/EP extension benchmarks."""

import numpy as np
import pytest

from repro.mem.params import pages_to_mb
from repro.workloads import make_npb
from repro.workloads.base import expand_phase


def rng():
    return np.random.default_rng(0)


def test_ep_footprint_tiny():
    """EP is the no-memory-pressure control."""
    assert pages_to_mb(make_npb("EP", "C").footprint_pages) <= 25


def test_ep_footprint_barely_shrinks_with_nodes():
    serial = make_npb("EP", "C", 1).footprint_pages
    four = make_npb("EP", "C", 4).footprint_pages
    assert four > serial * 0.5  # replicated state, not partitioned


def test_ft_iteration_covers_footprint():
    w = make_npb("FT", "A", max_phase_pages=4096)
    touched = set()
    for phase in w.iteration_phases(0, rng()):
        pages, _ = expand_phase(phase)
        touched.update(pages.tolist())
    assert touched == set(range(w.footprint_pages))


def test_ft_transpose_is_strided():
    """The transpose pass visits chunk 0 then chunk 8 (stride jumps)."""
    w = make_npb("FT", "A", max_phase_pages=100000)
    phases = list(w.iteration_phases(0, rng()))
    transpose = [p for p in phases if "transpose" in p.label]
    assert transpose
    pages, _ = expand_phase(transpose[0])
    # after the first 64-page chunk the next visited page jumps by 8*64
    assert pages[64] == 64 * 8


def test_ft_heavy_allto_all_comm():
    two = make_npb("FT", "C", 2)
    assert two.comm_s > make_npb("CG", "C", 2).comm_s


def test_ep_under_gang_has_no_paging_overhead():
    """EP never stresses memory: gang scheduling it is free."""
    from repro.experiments import GangConfig, mode_configs, run_grids
    from repro.metrics import overhead_fraction

    modes = mode_configs(GangConfig("EP", "B", nprocs=1, scale=0.2),
                         ["lru"])
    res = run_grids({"EP": modes})
    lru = res[modes["lru"]]
    oh = overhead_fraction(lru["makespan"], res[modes["batch"]]["makespan"])
    assert oh < 0.02
    assert lru["pages_read"] == 0


def test_ft_pages_heavily_under_gang():
    from repro.experiments import GangConfig, mode_configs, run_grids
    from repro.experiments.runner import makespans
    from repro.metrics import overhead_fraction, paging_reduction

    modes = mode_configs(GangConfig("FT", "B", nprocs=1, scale=0.1),
                         ["lru", "so/ao/ai/bg"])
    mk = makespans(modes, run_grids({"FT": modes}))
    oh = overhead_fraction(mk["lru"], mk["batch"])
    assert oh > 0.1
    red = paging_reduction(mk["lru"], mk["so/ao/ai/bg"], mk["batch"])
    assert red > 0.3
