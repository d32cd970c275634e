"""Experiment harnesses — one module per paper table/figure.

==================  =====================================================
module              reproduces
==================  =====================================================
``fig1_compaction``  Fig. 1 — paging compaction schematic, measured
``fig6_traces``      Fig. 6 — LU.C×4 paging activity traces per policy
``fig7_serial``      Fig. 7 — serial NPB class B: completion / overhead /
                     reduction
``fig8_parallel``    Fig. 8 — parallel NPB on 2 and 4 nodes
``fig9_lu_detail``   Fig. 9 — LU across all six policy combinations
``motivation``       §1 — Moreira et al. 128 MB vs 256 MB slowdown
``ablation_bgwrite`` §3.4 — background-write duration sweep
``ablation_readahead`` §3.3 — naive read-ahead boost vs adaptive page-in
``ablation_false_eviction`` §3.1 — refault counting, LRU vs selective
``ablation_wsestimator`` §3.2 — WS estimate: estimator vs oracle vs none
``extension_quantum``   overhead vs quantum length (§5/§6)
``extension_policies``  three baseline replacement policies (ref. [17])
``extension_scaling``   2/4/8/16-node clusters (§6 future work)
``extension_diskched``  FIFO/SSTF/C-SCAN dispatch vs adaptive paging
``extension_faults``    fault-injection sweep: graceful degradation
``extension_admission`` memory-aware admission control (ref. [15])
``extension_matrix``    mixed workload on the scheduling matrix
``extension_jobstream`` open-system Poisson arrivals, slowdown metrics
``extension_topology``  rack topology: wire vs straggler sync
``extension_characterization`` workload properties vs adaptive win
``sensitivity``      robustness grid for the headline result
``calibration``      the ERA_DISK seek×transfer calibration grid
``fig_summary``      one paper-vs-measured table across fig 7/8/9
``multi_seed``       replication statistics across seeds
``report_io``        JSON persistence of experiment records
==================  =====================================================

Every module exposes ``run(scale=..., seed=...) -> dict`` (structured
results) and prints the paper-style table/series when executed as a
script.  ``scale`` shrinks memory, footprints, CPU and quanta together
so the same experiment runs at sub-second size in the benchmarks.
"""

from repro.experiments.runner import (
    GangConfig,
    RunResult,
    mode_configs,
    run_cell,
    run_experiment,
    run_grids,
)

__all__ = ["GangConfig", "RunResult", "mode_configs", "run_cell",
           "run_experiment", "run_grids"]
