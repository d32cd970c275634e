"""Persistent sweep worker: warm process serving many sweeps.

One worker process runs :func:`worker_main` for its whole life.  At
boot it pre-warms the hot import graph (numpy, the simulation stack,
the cell executor) so that cost is paid once per worker instead of
once per sweep, then loops over messages on its duplex pipe:

* ``("sweep", gen, blobs, capture, plan)`` — remember the sweep's
  :class:`~repro.perf.persistent.SpecTable` pickles, the
  telemetry-capture flag and the
  :class:`~repro.faults.worker.WorkerFaultPlan` for this generation;
* ``("task", gen, index, attempt, fp)`` — unpickle cell ``index`` from
  the table, apply any injected host fault, execute through the same
  :func:`repro.perf.pool._execute` global-state reset the serial path
  uses, and reply ``("result", wid, gen, index, attempt, fp, ok,
  payload)`` where ``payload`` is the result (``ok``) or the raised
  exception object (so the parent can re-raise the original type);
* ``("end_sweep", gen)`` — drop the spec table;
* ``("stop",)`` — exit the loop and the process.

Messages on one pipe are ordered, so a task can never observe a stale
spec table: the parent always sends the sweep message first, and a
worker still busy with an aborted sweep's task simply is not enrolled
in the next sweep until it drains.

Fault injection draws from the sweep's
:class:`~repro.faults.worker.WorkerFaultPlan` by ``(index, attempt)``,
so the chaos suite replays the same deterministic schedule on every
run: a ``crash`` fail-stops the process via ``os._exit`` (surfacing in
the parent as a dead sentinel), ``hang``/``slow`` sleep before
executing.
"""

from __future__ import annotations

import os
import pickle
import time

#: modules imported at worker boot so sweeps hit a warm interpreter;
#: failures are ignored (a missing optional dep just warms less)
PREWARM_MODULES = (
    "numpy",
    "repro.experiments.runner",
    "repro.perf.pool",
    "repro.obs.sweep",
)

#: sentinel exit code used by injected worker crashes (diagnostic only)
CRASH_EXIT_CODE = 13


def prewarm() -> int:
    """Import the hot module graph; returns how many modules loaded."""
    loaded = 0
    for name in PREWARM_MODULES:
        try:
            __import__(name)
            loaded += 1
        except Exception:  # pragma: no cover - optional dep missing
            pass
    return loaded


def _apply_fault(plan, index: int, attempt: int) -> None:
    """Apply any injected host fault for this (cell, attempt) draw."""
    if plan is None or not plan.active:
        return
    kind = plan.decide(index, attempt)
    if kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    elif kind == "hang":
        time.sleep(plan.hang_s)
    elif kind == "slow":
        time.sleep(plan.slow_start_s)


def _run_task(blobs, wid: int, index: int, attempt: int,
              capture: bool, plan) -> tuple[bool, object]:
    """Execute one cell; returns ``(ok, payload)``."""
    from repro.perf.pool import Cell, _execute

    try:
        _apply_fault(plan, index, attempt)
        result = _execute(Cell(*pickle.loads(blobs[index])), capture)
    except Exception as exc:
        return False, exc
    # Annotate which worker ran the cell — but only inside an existing
    # "_perf" quarantine, so cells returning plain payloads stay
    # byte-identical to their serial execution.
    if isinstance(result, dict) and "_perf" in result \
            and isinstance(result["_perf"], dict):
        result["_perf"]["worker"] = wid
    return True, result


def worker_main(conn, wid: int) -> None:
    """Entry point of one persistent worker process."""
    prewarm()
    blobs = None
    gen = -1
    capture = False
    plan = None
    try:
        conn.send(("ready", wid, os.getpid()))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # parent went away: nothing left to serve
            op = msg[0]
            if op == "sweep":
                _, gen, blobs, capture, plan = msg
            elif op == "task":
                _, tgen, index, attempt, fp = msg
                if tgen != gen or blobs is None:
                    ok, payload = False, RuntimeError(
                        f"worker {wid}: task for generation {tgen} but "
                        f"sweep table is at generation {gen}")
                else:
                    ok, payload = _run_task(blobs, wid, index, attempt,
                                            capture, plan)
                try:
                    conn.send(("result", wid, tgen, index, attempt, fp,
                               ok, payload))
                except Exception as exc:
                    # unpicklable result/exception: degrade to a
                    # failure the parent can still consume
                    conn.send(("result", wid, tgen, index, attempt, fp,
                               False,
                               RuntimeError(
                                   f"result not picklable: {exc!r}")))
            elif op == "end_sweep":
                blobs = None
            elif op == "stop":
                break
    except KeyboardInterrupt:  # pragma: no cover - interactive abort
        pass
    finally:
        try:
            conn.close()
        except Exception:  # pragma: no cover - defensive
            pass


__all__ = ["CRASH_EXIT_CODE", "PREWARM_MODULES", "prewarm",
           "worker_main"]
