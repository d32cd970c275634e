"""Public-API hygiene: exports resolve, and every public item has docs.

The documentation deliverable requires doc comments on every public
item; this test enforces it mechanically for everything named in each
package's ``__all__``.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro.sim",
    "repro.disk",
    "repro.mem",
    "repro.core",
    "repro.gang",
    "repro.cluster",
    "repro.workloads",
    "repro.metrics",
    "repro.validation",
    "repro.experiments",
]

MODULES = PACKAGES + [
    "repro.sim.engine", "repro.sim.resources", "repro.sim.rng",
    "repro.sim.monitor", "repro.sim.tracing",
    "repro.disk.device", "repro.disk.swap",
    "repro.mem.params", "repro.mem.frames", "repro.mem.page_table",
    "repro.mem.replacement", "repro.mem.readahead",
    "repro.mem.working_set", "repro.mem.vmm", "repro.mem.diagnostics",
    "repro.core.policies", "repro.core.recorder", "repro.core.selective",
    "repro.core.aggressive", "repro.core.background", "repro.core.api",
    "repro.gang.signals", "repro.gang.job", "repro.gang.scheduler",
    "repro.gang.matrix", "repro.gang.admission",
    "repro.cluster.network", "repro.cluster.mpi", "repro.cluster.node",
    "repro.cluster.topology",
    "repro.workloads.base", "repro.workloads.synthetic",
    "repro.workloads.npb", "repro.workloads.jobstream",
    "repro.workloads.trace", "repro.workloads.analysis",
    "repro.metrics.collector", "repro.metrics.analysis",
    "repro.metrics.report", "repro.metrics.timeline",
    "repro.metrics.fairness",
    "repro.validation.analytic",
    "repro.experiments.runner", "repro.experiments.multi_seed",
    "repro.experiments.report_io",
]


@pytest.mark.parametrize("modname", MODULES)
def test_module_importable_with_docstring(modname):
    mod = importlib.import_module(modname)
    assert mod.__doc__ and mod.__doc__.strip(), f"{modname} lacks a docstring"


@pytest.mark.parametrize("pkgname", PACKAGES)
def test_all_exports_resolve_and_are_documented(pkgname):
    pkg = importlib.import_module(pkgname)
    exported = getattr(pkg, "__all__", None)
    assert exported, f"{pkgname} has no __all__"
    for name in exported:
        obj = getattr(pkg, name, None)
        assert obj is not None, f"{pkgname}.{name} does not resolve"
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert inspect.getdoc(obj), f"{pkgname}.{name} lacks a docstring"


@pytest.mark.parametrize("modname", MODULES)
def test_public_callables_have_docstrings(modname):
    mod = importlib.import_module(modname)
    exported = getattr(mod, "__all__", [])
    for name in exported:
        obj = getattr(mod, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        assert inspect.getdoc(obj), f"{modname}.{name} lacks a docstring"
        if inspect.isclass(obj):
            for mname, meth in inspect.getmembers(obj, inspect.isfunction):
                if mname.startswith("_"):
                    continue
                assert inspect.getdoc(meth), (
                    f"{modname}.{name}.{mname} lacks a docstring"
                )
