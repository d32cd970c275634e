"""The repository's benchmark: three workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig6_lru --seconds 10
    python3 perfbench/run.py --workload npb_full_adaptive --trace 1
    python3 perfbench/run.py --workload all          # every workload
    python3 perfbench/run.py --workload fig6_lru --crosscheck

One process runs one workload at a time (a closed loop with a single
client): it repeats the workload until ``--seconds`` have passed and
reports medians over the repetitions.  Reported times are scaled to a
nominal host speed measured by a fixed reference kernel run between
repetitions (see ``calibrated``); the raw times are on the detail line.
``--trace 0`` reports the end-to-end metrics with no instrumentation
installed.  ``--trace 1`` runs untraced repetitions for half the time
and traced ones (see ``layers.py``) for the other half, and reports the
per-layer table, in raw seconds per repetition, plus the tracing
overhead.  ``--crosscheck`` compares one traced repetition's layer table
with a cProfile pass (``crosscheck.py``).

Every repetition's simulated fingerprint is checked against the values
pinned in ``pinned.json`` (regenerate with ``pin.py``); for a seed with
no pinned value, every repetition must equal the first.  A mismatch
counts as a failed attempt.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the host fingerprint and the
raw samples.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # setup probes time their imports from here

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_SECONDS = 30
WORKLOAD_NAMES = ("fig6_lru", "npb_full_adaptive", "sweep_cg_auto")
#: fresh-process set-ups per run; setup_s is their median
SETUP_PROBES = 7
#: seconds ``cases.reference_s`` takes on the host speed reported times
#: are scaled to (see ``calibrated``)
REF_NOMINAL_S = 0.05
#: a repetition count below which a run keeps going past --seconds
MIN_REPS = 3
#: longest temp directory that leaves room for a socket name under it
#: (socket paths are limited to 107 bytes on Linux)
MAX_TMP_PATH = 60

#: end-to-end metrics: name, unit, bound (share of the parent's median
#: by which the metric may worsen before a change counts as a regression)
END_TO_END = (
    ("host_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.2),
)

#: layers with a call count and a self time, in table order
TIMED_LAYERS = (
    "sim.step",
    "mem.touch", "mem.touch_fast", "mem.reclaim", "mem.evict_batch",
    "mem.swap_in_block", "mem.readahead", "mem.select_victims",
    "core.adaptive_page_out", "core.adaptive_page_in", "core.ao_run",
    "core.so_select",
    "disk.submit", "disk.service_time_for", "disk.eager",
    "metrics.hook",
    "workloads.expand_phase",
    "perf.dispatch",
)
PER_LAYER = tuple(
    (f"{layer}.{kind}", unit)
    for layer in TIMED_LAYERS
    for kind, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("sim.events_simulated", "count"),
    ("sim.absorbed_frac", "fraction"),
    ("mem.refault_frac", "fraction"),
    ("core.bgwrite.calls", "count"),
    ("disk.pages_per_request", "pages/request"),
    ("workloads.build_s", "s"),
    ("gang.switch_count", "count"),
    ("perf.spawn_s", "s"),
    ("perf.spec_build_s", "s"),
    ("perf.spec_bytes", "bytes"),
    ("perf.poll.wait_s", "s"),
    ("perf.execute_s", "s"),
    ("perf.cell_s.p50", "s"),
    ("perf.cell_s.max", "s"),
    ("perf.result_bytes", "bytes"),
    ("perf.merge_s", "s"),
    ("perf.parallel_efficiency", "fraction"),
    ("perf.fanout_overhead_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_s", "s"),
)


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def keep_temp_files_in_checkout() -> None:
    """Point temporary files (the sweep's forkserver socket) at the checkout.

    Skipped when the checkout path is so long that a socket under it
    would pass the platform's limit on socket path length.
    """
    tmp = ROOT / ".bench_tmp"
    if len(str(tmp)) <= MAX_TMP_PATH:
        tmp.mkdir(exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)


# -- host fingerprint ---------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_fingerprint() -> dict:
    """Where a result was measured; compare results only within one host."""
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
    }


# -- fingerprint checks -------------------------------------------------------
def load_pins(name: str) -> dict:
    with open(HERE / "pinned.json") as fh:
        return json.load(fh).get(name, {})


class Checker:
    """Counts attempts whose fingerprint is not the expected one.

    A pinned attempt must equal its pinned fingerprint; an unpinned one
    must equal the first time the run saw it.
    """

    def __init__(self, pins: dict) -> None:
        self.pins = pins
        self.seen: dict = {}
        self.attempted = 0
        self.failed = 0
        self.unpinned: set = set()

    def check(self, prints: dict) -> int:
        failed = 0
        for key, fp in prints.items():
            if key in self.pins:
                ok = self.pins[key] == fp
            else:
                self.unpinned.add(key)
                ok = self.seen.setdefault(key, fp) == fp
            failed += not ok
        self.attempted += len(prints)
        self.failed += failed
        return failed

    @property
    def mode(self) -> str:
        return "self-consistent" if self.unpinned else "pinned"


# -- measurement --------------------------------------------------------------
def probe_setup(name: str, seed: int) -> None:
    """Child side of one set-up probe: print seconds since start."""
    import cases

    cases.make(name, seed).probe_setup()
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


def calibrated(times: list[float], refs: list[float]) -> float:
    """Median of ``times`` scaled to the nominal host speed.

    The host this runs on changes speed for minutes at a time (other
    tenants, frequency changes).  ``refs`` are durations of a fixed
    reference kernel taken between the measurements; dividing by their
    median moves a slow spell out of the reported time while keeping
    any change in the code under test.
    """
    return statistics.median(times) * REF_NOMINAL_S / statistics.median(refs)


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Set the workload up in fresh processes, between reference runs.

    Returns the raw seconds per process and the reference times taken
    before the first and after every process.
    """
    import cases

    raw = []
    refs = [cases.reference_s()]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if out.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{out.stderr}")
        raw.append(json.loads(out.stdout.strip().splitlines()[-1])
                   ["setup_s"])
        refs.append(cases.reference_s())
    return raw, refs


def repeat(runner, checker: Checker, until: float, reps: list,
           refs: list) -> None:
    """Append repetitions to ``reps`` until the clock passes ``until``.

    ``refs`` gets a reference time before the first repetition and after
    every one.  Each repetition starts from a collected heap: the simulation
    runs with the cyclic collector paused, and the cycles it leaves
    behind would otherwise pile up and make peak RSS grow with the
    count.
    """
    if not refs:
        gc.collect()
        refs.append(runner.reference())
    while True:
        rep = runner.rep()
        checker.check(rep.prints)
        gc.collect()
        refs.append(runner.reference())
        reps.append(rep)
        if time.perf_counter() >= until:
            return


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    import cases

    setup, setup_refs = measure_setup(name, seed)
    runner = cases.make(name, seed)
    checker = Checker(load_pins(name))
    reps: list = []
    refs: list = []
    runner.start()
    try:
        t0 = time.perf_counter()
        repeat(runner, checker, t0 + seconds, reps, refs)
        while len(reps) < MIN_REPS:
            repeat(runner, checker, 0.0, reps, refs)
        rss = max([cases.self_peak_rss_mb()]
                  + [cases.proc_peak_rss_mb(p) for p in runner.worker_pids()])
    finally:
        runner.stop()
    walls = [r.wall_s for r in reps]
    cpus = [r.cpu_s for r in reps]
    metrics = {
        "host_s": calibrated(walls, refs),
        "cpu_s": calibrated(cpus, refs),
        "setup_s": calibrated(setup, setup_refs),
        "peak_rss_mb": rss,
    }
    return {
        "metrics": metrics,
        "checker": checker,
        "samples": {"raw_host_s": quartiles(walls),
                    "raw_cpu_s": quartiles(cpus),
                    "raw_setup_s": quartiles(setup),
                    "reference_s": quartiles(refs),
                    "setup_reference_s": quartiles(setup_refs)},
    }


def _per_rep(tracer, name: str, n: int) -> tuple[float, float]:
    return tracer.calls.get(name, 0) / n, tracer.self_s.get(name, 0.0) / n


def simulated_counts(records: list) -> dict:
    """Deterministic per-layer ratios and counts of one repetition."""
    stats = [s for r in records for s in r["vmm_stats"]]
    simulated = sum(r["events_simulated"] for r in records)
    dispatched = sum(r["events_dispatched"] for r in records)
    swapped_in = sum(s["pages_swapped_in"] for s in stats)
    # sweep cells keep their disk request counts in the workers
    requests = sum(r.get("disk_requests", 0) for r in records)
    return {
        "sim.events_simulated": simulated,
        "sim.absorbed_frac": 1.0 - dispatched / simulated,
        "mem.refault_frac": sum(s["refaults"] for s in stats) / swapped_in
        if swapped_in else 0.0,
        "disk.pages_per_request": sum(r.get("disk_pages", 0)
                                      for r in records) / requests
        if requests else 0.0,
        "gang.switch_count": sum(r["switch_count"] for r in records),
    }


class TracedRunner:
    """Runs each repetition, and only the repetitions, traced.

    The reference kernel between repetitions goes through the sweep
    executor too, and must not count towards its layers.
    """

    def __init__(self, runner, tracer) -> None:
        self.runner = runner
        self.tracer = tracer

    def rep(self):
        with self.tracer:
            return self.runner.rep()

    def reference(self) -> float:
        return self.runner.reference()


def traced(name: str, seed: int, seconds: float) -> dict:
    import cases
    from layers import Tracer
    from repro.perf.persistent import peek_default_executor

    runner = cases.make(name, seed)
    checker = Checker(load_pins(name))
    plain: list = []
    timed: list = []
    plain_refs: list = []
    timed_refs: list = []
    tracer = Tracer()
    spec_bytes = 0
    spawn_s = runner.start()
    try:
        t0 = time.perf_counter()
        repeat(runner, checker, t0 + seconds / 2, plain, plain_refs)
        executor = peek_default_executor()
        spec0 = executor.stats["spec_bytes"] if executor else 0
        repeat(TracedRunner(runner, tracer), checker, t0 + seconds, timed,
               timed_refs)
        if executor:
            spec_bytes = executor.stats["spec_bytes"] - spec0
    finally:
        runner.stop()
    n = len(timed)
    wall = sum(r.wall_s for r in timed) / n
    metrics: dict = {}
    for layer in TIMED_LAYERS:
        calls, self_s = _per_rep(tracer, layer, n)
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
    metrics.update(simulated_counts(timed[-1].records))
    metrics["core.bgwrite.calls"] = _per_rep(tracer, "core.bgwrite", n)[0]
    metrics["workloads.build_s"] = _per_rep(tracer, "workloads.build", n)[1]

    shipped = [rec for r in timed for rec in r.records if "_perf" in rec]
    cells = [rec["_perf"]["wall_s"] for rec in shipped]
    jobs = getattr(runner, "jobs", 1)
    execute_s = sum(cells) / n
    sweep = bool(cells)
    metrics.update({
        "perf.spawn_s": spawn_s,
        "perf.spec_build_s": _per_rep(tracer, "perf.spec_build", n)[1],
        "perf.spec_bytes": spec_bytes / n,
        "perf.poll.wait_s": _per_rep(tracer, "perf.poll", n)[1],
        "perf.execute_s": execute_s,
        "perf.cell_s.p50": statistics.median(cells) if sweep else 0.0,
        "perf.cell_s.max": max(cells) if sweep else 0.0,
        "perf.result_bytes": sum(len(pickle.dumps(rec))
                                 for rec in shipped) / n,
        "perf.merge_s": (_per_rep(tracer, "perf.replicate", n)[1]
                         + _per_rep(tracer, "perf.run_cells", n)[1]),
        "perf.parallel_efficiency": execute_s / (jobs * wall) if sweep
        else 0.0,
        "perf.fanout_overhead_s": jobs * wall - execute_s if sweep else 0.0,
        "trace.overhead_frac":
            calibrated([r.wall_s for r in timed], timed_refs)
            / calibrated([r.wall_s for r in plain], plain_refs) - 1.0,
        "trace.unattributed_s": wall - tracer.total_self_s() / n,
    })
    return {
        "metrics": metrics,
        "checker": checker,
        "samples": {"untraced_host_s": quartiles([r.wall_s for r in plain]),
                    "traced_host_s": quartiles([r.wall_s for r in timed]),
                    "reference_s": quartiles(plain_refs + timed_refs)},
        "layers": {k: {"calls": tracer.calls.get(k, 0) / n,
                       "self_s": tracer.self_s.get(k, 0.0) / n}
                   for k in sorted(set(tracer.calls) | set(tracer.self_s))},
    }


# -- output -------------------------------------------------------------------
def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(name: str, seed: int, trace: int, out: dict) -> dict:
    checker: Checker = out["checker"]
    units = dict(PER_LAYER if trace else
                 [(n, u) for n, u, _ in END_TO_END])
    metrics = {k: {"value": v, "unit": units[k]}
               for k, v in out["metrics"].items()}
    failed_frac = checker.failed / checker.attempted
    print(f"workload {name} seed {seed} trace {trace}: "
          f"{checker.attempted} attempts, fingerprints {checker.mode}")
    for key, m in metrics.items():
        print(f"  {key:<32} {_fmt(m['value']):>14} {m['unit']}")
    print(f"  {'failed_frac':<32} {_fmt(failed_frac):>14} fraction "
          f"({checker.failed} of {checker.attempted})")
    detail = {"workload": name, "seed": seed, "trace": trace,
              "fingerprints": checker.mode, "failed_frac": failed_frac,
              "host": host_fingerprint(), "samples": out["samples"]}
    if "layers" in out:
        detail["layers"] = out["layers"]
    print("detail " + json.dumps(detail, sort_keys=True))
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=900, cwd=ROOT)
        sys.stdout.write(out.stdout)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            raise SystemExit(f"perfbench: workload {name} failed")
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
    return results


def describe() -> dict:
    """The BENCHMARK.json this benchmark implements."""
    import cases

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": cases.WHY[n]}
                      for n in WORKLOAD_NAMES],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u,
                       "better": "higher" if n.endswith(
                           ("absorbed_frac", "pages_per_request",
                            "parallel_efficiency")) else "lower"}
                      for n, u in PER_LAYER],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                   default="all")
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the pinned seed, 1)")
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--crosscheck", action="store_true",
                   help="compare the layer table with a cProfile pass")
    p.add_argument("--describe", action="store_true",
                   help="print the BENCHMARK.json this file implements")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    use_checkout_sources()
    keep_temp_files_in_checkout()
    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    if args.workload == "all":
        print(json.dumps(run_all(args), sort_keys=True))
        return 0
    import cases

    seed = cases.DEFAULT_SEED if args.seed is None else args.seed
    if args.setup_probe:
        probe_setup(args.workload, seed)
        return 0
    if args.crosscheck:
        import crosscheck

        result = crosscheck.run(args.workload, seed,
                                Checker(load_pins(args.workload)))
        print(json.dumps(result, sort_keys=True))
        return 0 if result["agree"] else 1
    measure = traced if args.trace else end_to_end
    out = measure(args.workload, seed, args.seconds)
    print(json.dumps(report(args.workload, seed, args.trace, out),
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
