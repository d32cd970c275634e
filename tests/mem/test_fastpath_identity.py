"""Scalar oracle vs the fast path, per paper policy, beyond LU.

``test_batch_advance_identity`` holds the oracle-vs-fast suite and its
per-policy grid on LU.C@2.  This file runs the same per-policy check on
the two other class-C two-rank cells whose ranks fit a node's memory,
CG.C@2 and MG.C@2, so every policy is compared on more than one
reference pattern: outputs bit-identical, and the fast path
dispatching fewer events than the oracle.
"""

import pytest

from repro.core.policies import PAPER_POLICIES
from repro.experiments.runner import GangConfig
from tests.mem.test_batch_advance_identity import (  # noqa: F401
    _restore_fast_path,
    _run_both,
)


@pytest.mark.parametrize("policy", PAPER_POLICIES)
def test_fast_and_slow_runs_identical(policy):
    for bench in ("CG", "MG"):
        cfg = GangConfig(bench, "C", nprocs=2, policy=policy, seed=1,
                         scale=0.05)
        fast, oracle = _run_both(cfg)
        # the fast path exists to remove events; equality would mean it
        # never engaged on a paging-heavy cell
        assert fast.events_dispatched < oracle.events_dispatched, \
            cfg.label()
