"""Cross-check the layer table against cProfile.

One traced repetition gives each layer's self time (``layers.py``); one
repetition under cProfile gives each function's own time.  Both are
compared as shares of their total, since cProfile's per-call cost
inflates absolute times.

cProfile's own times are bucketed two ways:

* **by module** (``repro`` source file).  This is the view to read for
  what a layer's self time hides: ``sim.step`` counts the process
  bodies (``gang/``, ``core/background.py``) and everything they call
  without going through a timed entry point, such as the page-table
  index work of the background writer in ``mem/index.py``.
* **by layer**, the cut the timers make.  A function that is a timed
  entry point counts for its layer; any other function's time goes to
  its callers, split by the time each caller's calls took, until an
  entry point is reached.  Time in code outside ``repro`` (numpy,
  builtins) is handed to callers the same way in both views.

The timers agree with cProfile when every layer group's two shares
differ by at most :data:`TOLERANCE`.  The gap that remains comes from
cProfile charging its per-call overhead to call-heavy code, from
splitting a shared helper's time by caller totals rather than by stack
(``mem/index.py`` serves both the background writer and eviction), and
from the two repetitions running at different moments on a host whose
speed drifts.  On ``npb_full_adaptive`` the sim and mem gaps measured
0.06 to 0.11 over repeated checks, hence 0.15.
"""

from __future__ import annotations

import cProfile
import pstats
import time

from layers import HOOK_NAME, LAYER_TARGETS, resolve

#: largest allowed gap between a group's two shares of the total
TOLERANCE = 0.15

#: group name and the layer prefixes it covers
GROUPS = (
    ("sim", ("sim.",)),
    ("mem", ("mem.",)),
    ("core", ("core.",)),
    ("disk", ("disk.",)),
    ("metrics", ("metrics.",)),
    ("workloads", ("workloads.",)),
)
OTHER = "other"
#: the collector's per-node disk hooks, as cProfile names them
HOOK_FUNCS = ("hook", "run_hook")


def _repro_module(filename: str):
    marker = "/repro/"
    i = filename.rfind(marker)
    return filename[i + len(marker):] if i >= 0 else None


def _entry_points() -> dict[tuple[str, int, str], str]:
    """pstats key -> layer name of every timed entry point."""
    entries = {}
    for layer, module, path in LAYER_TARGETS:
        fn = getattr(*resolve(module, path))
        code = getattr(fn, "__code__", None)
        if code is not None:
            entries[(code.co_filename, code.co_firstlineno,
                      code.co_name)] = layer
    return entries


def attribute(stats: pstats.Stats, base) -> dict[str, float]:
    """Sum own times into buckets.

    ``base(func)`` names the bucket of a function that owns its time, or
    returns ``None`` for one whose time goes to its callers.
    """
    raw = stats.stats
    owners: dict = {}

    def owner(func) -> dict[str, float]:
        if func in owners:
            return owners[func]
        bucket = base(func)
        owners[func] = {bucket or OTHER: 1.0}  # also breaks cycles
        if bucket is not None:
            return owners[func]
        callers = raw[func][4] if func in raw else {}
        weights = {c: v[2] for c, v in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: v[1] for c, v in callers.items()}
        total = sum(weights.values())
        if total > 0:
            share: dict[str, float] = {}
            for caller, w in weights.items():
                for b, s in owner(caller).items():
                    share[b] = share.get(b, 0.0) + s * w / total
            owners[func] = share
        return owners[func]

    buckets: dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, _callers) in raw.items():
        for b, s in owner(func).items():
            buckets[b] = buckets.get(b, 0.0) + tt * s
    return buckets


def module_buckets(stats: pstats.Stats) -> dict[str, float]:
    return attribute(stats, lambda func: _repro_module(func[0]))


def layer_buckets(stats: pstats.Stats) -> dict[str, float]:
    entries = _entry_points()

    def base(func):
        if func in entries:
            return entries[func]
        module = _repro_module(func[0])
        if module == "metrics/collector.py" and func[2] in HOOK_FUNCS:
            return HOOK_NAME
        return None

    return attribute(stats, base)


def _group(layer: str) -> str:
    for name, prefixes in GROUPS:
        if layer.startswith(prefixes):
            return name
    return OTHER


def run(name: str, seed: int, checker) -> dict:
    """One traced and one profiled repetition of a single-cell workload.

    ``checker`` checks both repetitions' simulated fingerprints.
    """
    import cases
    from layers import Tracer

    runner = cases.make(name, seed)
    if not isinstance(runner, cases.SingleCell):
        raise SystemExit("perfbench: --crosscheck needs a single-cell "
                         "workload (the sweep runs its cells elsewhere)")
    with Tracer() as tracer:
        traced = runner.rep()
    checker.check(traced.prints)
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    profiled = runner.rep()
    profiler.disable()
    profiled_wall = time.perf_counter() - t0
    checker.check(profiled.prints)

    stats = pstats.Stats(profiler)
    layers = layer_buckets(stats)
    modules = module_buckets(stats)
    profile_total = sum(layers.values())
    shares: dict[str, list[float]] = {}
    for layer, self_s in tracer.self_s.items():
        shares.setdefault(_group(layer), [0.0, 0.0])[0] += \
            self_s / traced.wall_s
    shares.setdefault(OTHER, [0.0, 0.0])[0] += \
        (traced.wall_s - tracer.total_self_s()) / traced.wall_s
    for layer, tt in layers.items():
        shares.setdefault(_group(layer), [0.0, 0.0])[1] += tt / profile_total

    rows = [{"group": g, "trace_share": t, "profile_share": p,
             "gap": abs(t - p), "ok": abs(t - p) <= TOLERANCE}
            for g, (t, p) in sorted(shares.items(), key=lambda kv: -kv[1][0])]
    print(f"layer groups, share of total (tolerance {TOLERANCE}):")
    for r in rows:
        print(f"  {r['group']:<10} trace {r['trace_share']:6.3f}  "
              f"cProfile {r['profile_share']:6.3f}  gap {r['gap']:.3f}"
              f"{'' if r['ok'] else '  OUTSIDE TOLERANCE'}")
    top = sorted(modules.items(), key=lambda kv: -kv[1])[:12]
    print("cProfile by module, share of total:")
    for module, tt in top:
        print(f"  {module:<28} {tt / profile_total:6.3f}")
    return {
        "workload": name,
        "seed": seed,
        "tolerance": TOLERANCE,
        "agree": all(r["ok"] for r in rows),
        "fingerprints_ok": checker.failed == 0,
        "traced_wall_s": traced.wall_s,
        "profiled_wall_s": profiled_wall,
        "groups": rows,
        "modules": {m: tt / profile_total for m, tt in top},
    }


__all__ = ["GROUPS", "TOLERANCE", "layer_buckets", "module_buckets", "run"]
