"""Parallel fan-out of a sweep matrix over worker processes.

:class:`SweepRunner` executes every :class:`~repro.sweep.RunSpec` of a
:class:`~repro.sweep.SweepSpec`, up to ``jobs`` at a time, each in its
own ``multiprocessing`` process with a per-run wall-clock budget.  The
failure policy, in order:

1. **Timeout** — a worker past its budget is terminated (then killed);
   the run is retried once, and recorded as ``status: "timeout"`` if
   the retry also overruns.  Timed-out runs are never executed
   serially in the parent (a hang would stall the whole sweep).
2. **Crash** — a worker that dies without delivering a result
   (segfault, ``os._exit``, OOM-kill) gets one retry in a fresh
   worker; a second death degrades that run to serial execution in
   the parent, where a raised exception is caught and recorded as
   ``status: "error"`` instead of taking the sweep down.
3. **Error** — a Python exception inside the scenario is caught by the
   worker and reported as ``status: "error"`` immediately: it is
   deterministic, so a retry cannot help.
4. If worker processes cannot be spawned at all (or ``jobs=1``), the
   whole sweep runs serially — same results, no parallelism.

Results are always reported in matrix order regardless of completion
order, so identical specs produce identically ordered payloads (the
determinism contract ``repro.sweep.strip_volatile`` tests rely on).
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Dict, List, Optional

from .aggregate import aggregate_results
from .scenario import execute_run
from .spec import RunSpec, SweepSpec

__all__ = ["SweepRunner", "run_sweep"]

#: attempts per run before the degradation policy kicks in
MAX_ATTEMPTS = 2


def start_context():
    """The multiprocessing context of every worker pool (sweep, shard
    topology, job service): fork where the platform offers it (fast —
    no re-import), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _worker_main(conn, run: Dict[str, Any], attempt: int) -> None:
    """Worker-process entry: execute one run, ship the result back.

    A scenario exception is converted into an ``("error", info)``
    message — only hard process death leaves the parent without a
    message, which is exactly the crash signal the retry policy keys
    on.  The info dict carries the formatted traceback: the exception
    object dies with the worker process, so type and message alone
    used to be all a failed sweep run ever reported.
    """
    try:
        result = execute_run(run, attempt=attempt, in_worker=True)
        conn.send(("ok", result))
    except Exception as exc:
        conn.send(("error", {"type": type(exc).__name__,
                             "message": str(exc),
                             "traceback": traceback.format_exc()}))
    finally:
        conn.close()


class _Active:
    """Bookkeeping for one in-flight worker process."""

    __slots__ = ("process", "conn", "run", "attempt", "deadline")

    def __init__(self, process, conn, run: RunSpec, attempt: int,
                 deadline: float) -> None:
        self.process = process
        self.conn = conn
        self.run = run
        self.attempt = attempt
        self.deadline = deadline


class SweepRunner:
    """Executes a sweep spec and aggregates the results.

    Args:
        spec: the scenario matrix and knobs.
        jobs: override ``spec.jobs`` (worker processes; 1 = serial).
        timeout_s: override ``spec.timeout_s`` (per-run budget).

    Example::

        spec = SweepSpec(traffic=["cbr", "poisson"], seeds=[0, 1])
        payload = SweepRunner(spec).run()
        print(payload["aggregate"]["runs_passed"])
    """

    def __init__(self, spec: SweepSpec, jobs: Optional[int] = None,
                 timeout_s: Optional[float] = None) -> None:
        self.spec = spec
        self.jobs = spec.jobs if jobs is None else int(jobs)
        self.timeout_s = spec.timeout_s if timeout_s is None \
            else float(timeout_s)
        if self.jobs < 1:
            raise ValueError(f"need >= 1 job, got {self.jobs}")
        if self.timeout_s <= 0:
            raise ValueError(f"non-positive timeout {self.timeout_s}")
        self._ctx = start_context()
        self.stats: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Execute the whole matrix; returns the sweep payload
        (per-run results in matrix order, the aggregate, and the
        execution record)."""
        runs = self.spec.expand()
        started = time.perf_counter()
        self.stats = {"jobs": self.jobs,
                      "start_method": self._ctx.get_start_method(),
                      "workers_spawned": 0, "crashes": 0, "timeouts": 0,
                      "retries": 0, "serial_fallbacks": 0,
                      "degraded_to_serial": False,
                      # one entry per retried/degraded attempt, with
                      # the failure detail that motivated it
                      "retry_log": []}
        if self.jobs == 1:
            results = {run.name: self._run_serial(run) for run in runs}
        else:
            results = self._run_pool(runs)
        ordered = [results[run.name] for run in runs]
        self.stats["sweep_wall_s"] = time.perf_counter() - started
        return {
            "benchmark": "sweep",
            "spec": self.spec.as_dict(),
            "runs": ordered,
            "aggregate": aggregate_results(ordered),
            "execution": dict(self.stats),
        }

    # -- serial --------------------------------------------------------
    def _run_serial(self, run: RunSpec, attempt: int = 1,
                    mode: str = "serial") -> Dict[str, Any]:
        """Execute one run in the parent process, converting scenario
        exceptions into an ``"error"`` result."""
        try:
            result = execute_run(run.as_dict(), attempt=attempt,
                                 in_worker=False)
        except Exception as exc:
            result = self._failure_result(
                run, "error", {"type": type(exc).__name__,
                               "message": str(exc),
                               "traceback": traceback.format_exc()})
        result["mode"] = mode
        result["attempts"] = attempt
        return result

    # -- pool ----------------------------------------------------------
    def _run_pool(self, runs: List[RunSpec]) -> Dict[str, Dict[str, Any]]:
        """Fan runs out over up to ``jobs`` worker processes."""
        pending: List[tuple] = [(run, 1) for run in reversed(runs)]
        active: List[_Active] = []
        results: Dict[str, Dict[str, Any]] = {}
        serial_mode = False
        while pending or active:
            if serial_mode and not active:
                # Workers are unusable: finish everything in-process.
                for run, attempt in reversed(pending):
                    results[run.name] = self._run_serial(
                        run, attempt=attempt, mode="serial-fallback")
                pending.clear()
                continue
            while not serial_mode and pending and len(active) < self.jobs:
                run, attempt = pending.pop()
                worker = self._spawn(run, attempt)
                if worker is None:
                    self.stats["degraded_to_serial"] = True
                    serial_mode = True
                    pending.append((run, attempt))
                    break
                active.append(worker)
            if not active:
                continue
            now = time.monotonic()
            horizon = min(worker.deadline for worker in active)
            _conn_wait([worker.conn for worker in active],
                       timeout=max(0.0, min(horizon - now, 0.25)))
            still_active: List[_Active] = []
            for worker in active:
                outcome = self._collect(worker)
                if outcome is None:
                    still_active.append(worker)
                    continue
                kind, payload = outcome
                self._settle(worker, kind, payload, pending, results)
            active = still_active
        return results

    def _spawn(self, run: RunSpec, attempt: int) -> Optional[_Active]:
        """Start one worker; None when process creation itself fails
        (the signal to degrade the whole sweep to serial)."""
        try:
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, run.as_dict(), attempt),
                name=f"sweep-{run.name}-a{attempt}", daemon=True)
            process.start()
        except OSError:
            return None
        child_conn.close()
        self.stats["workers_spawned"] += 1
        return _Active(process, parent_conn, run, attempt,
                       deadline=time.monotonic() + self.timeout_s)

    def _collect(self, worker: _Active):
        """Classify one in-flight worker: None (still running),
        ``("ok"|"error", payload)`` from the pipe, or a synthesised
        ``("crash"|"timeout", info)``."""
        if worker.conn.poll():
            try:
                kind, payload = worker.conn.recv()
            except (EOFError, OSError):
                # reap before reading the exit code — right after the
                # pipe EOF the child may not be waitable yet, and an
                # unjoined process reads exitcode None
                worker.process.join(timeout=5.0)
                return ("crash", {"exitcode": worker.process.exitcode})
            worker.process.join()
            return (kind, payload)
        if worker.process.exitcode is not None:
            worker.process.join()
            return ("crash", {"exitcode": worker.process.exitcode})
        if time.monotonic() >= worker.deadline:
            worker.process.terminate()
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - stubborn
                worker.process.kill()
                worker.process.join()
            return ("timeout", {"timeout_s": self.timeout_s})
        return None

    def _settle(self, worker: _Active, kind: str, payload,
                pending: List[tuple],
                results: Dict[str, Dict[str, Any]]) -> None:
        """Apply the failure policy to one finished worker."""
        worker.conn.close()
        run, attempt = worker.run, worker.attempt
        if kind == "ok":
            payload["mode"] = "pool"
            payload["attempts"] = attempt
            results[run.name] = payload
            return
        if kind == "error":
            result = self._failure_result(run, "error", payload)
            result["mode"] = "pool"
            result["attempts"] = attempt
            results[run.name] = result
            return
        self.stats["crashes" if kind == "crash" else "timeouts"] += 1
        if attempt < MAX_ATTEMPTS:
            self.stats["retries"] += 1
            self.stats["retry_log"].append(
                {"name": run.name, "attempt": attempt, "kind": kind,
                 "detail": payload})
            pending.append((run, attempt + 1))
            return
        if kind == "timeout":
            result = self._failure_result(run, "timeout", payload)
            result["mode"] = "pool"
            result["attempts"] = attempt
            results[run.name] = result
            return
        # Second crash: degrade this run to serial execution so its
        # result (or a caught error) survives without a worker.
        self.stats["serial_fallbacks"] += 1
        self.stats["retry_log"].append(
            {"name": run.name, "attempt": attempt, "kind": kind,
             "detail": payload})
        result = self._run_serial(run, attempt=attempt + 1,
                                  mode="serial-fallback")
        results[run.name] = result

    @staticmethod
    def _failure_result(run: RunSpec, status: str,
                        detail) -> Dict[str, Any]:
        """A result record for a run that produced no scenario output."""
        return {
            "name": run.name,
            "params": {"traffic": run.traffic, "ports": run.ports,
                       "seed": run.seed, "sync": run.sync,
                       "cells": run.cells, "load": run.load,
                       "level": run.level},
            "status": status,
            "passed": False,
            "detail": detail,
        }


def run_sweep(spec: SweepSpec, jobs: Optional[int] = None,
              timeout_s: Optional[float] = None) -> Dict[str, Any]:
    """Convenience wrapper: ``SweepRunner(spec, ...).run()``."""
    return SweepRunner(spec, jobs=jobs, timeout_s=timeout_s).run()
