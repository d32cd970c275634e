"""GangConfig construction-time validation (one test per rejection)."""

import pytest

from repro.experiments import GangConfig
from repro.faults import FaultRates


def test_valid_config_constructs():
    cfg = GangConfig("LU", "B", nprocs=2, policy="so/ao/ai/bg",
                     faults=FaultRates(disk_error_rate=0.1),
                     max_sim_s=100.0, max_events=10_000)
    assert cfg.label().startswith("LU.B")


def test_rejects_nonpositive_nprocs():
    with pytest.raises(ValueError, match="nprocs"):
        GangConfig("LU", "B", nprocs=0)


def test_rejects_nonpositive_njobs():
    with pytest.raises(ValueError, match="njobs"):
        GangConfig("LU", "B", njobs=0)


def test_rejects_nonpositive_memory():
    with pytest.raises(ValueError, match="memory_mb"):
        GangConfig("LU", "B", memory_mb=0.0)


def test_rejects_nonpositive_quantum():
    with pytest.raises(ValueError, match="quantum_s"):
        GangConfig("LU", "B", quantum_s=-5.0)


def test_rejects_nonpositive_scale():
    with pytest.raises(ValueError, match="scale"):
        GangConfig("LU", "B", scale=0.0)


def test_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        GangConfig("LU", "B", mode="preemptive")


def test_rejects_unknown_policy():
    with pytest.raises(ValueError, match="mechanism"):
        GangConfig("LU", "B", policy="so/zz")


def test_rejects_unknown_replacement():
    with pytest.raises(ValueError, match="unknown replacement"):
        GangConfig("LU", "B", replacement="fifo-clock")


def test_rejects_bg_fraction_outside_unit_interval():
    for frac in (-0.1, 1.5):
        with pytest.raises(ValueError, match="bg_fraction"):
            GangConfig("LU", "B", policy="so/ao/bg", bg_fraction=frac)


def test_rejects_nonpositive_readahead():
    for pages in (0, -16):
        with pytest.raises(ValueError, match="readahead_pages"):
            GangConfig("LU", "B", readahead_pages=pages)


def test_rejects_nonpositive_watchdog_limits():
    with pytest.raises(ValueError, match="max_sim_s"):
        GangConfig("LU", "B", max_sim_s=0.0)
    with pytest.raises(ValueError, match="max_events"):
        GangConfig("LU", "B", max_events=0)


def test_rejects_bad_fault_rates_via_faultrates():
    with pytest.raises(ValueError, match="probability"):
        GangConfig("LU", "B", faults=FaultRates(disk_error_rate=3.0))
