"""The per-run worker scenario behind ``repro.sweep``.

Each matrix cell runs the E1 scenario of :mod:`repro.scenario` to
completion inside a worker process: an abstract ATM switch with one
traffic source per port, the accounting DUT coupled on the aggregate
switched stream, and the algorithmic :class:`~repro.atm.AccountingUnit`
as the reference model.  After the drain, the DUT's charging records
are compared against the reference (sorted normalisation — record
order within a tariff interval is an implementation detail) and the
observability snapshot is condensed into the run result.  The worker
entry point pickles cleanly under every multiprocessing start method.
"""

from __future__ import annotations

import os
import time as _time
from pathlib import Path
from typing import Any, Dict

__all__ = ["execute_run"]


def _apply_injection(run: Dict[str, Any], attempt: int,
                     in_worker: bool) -> None:
    """Honour the test-only failure-injection hook of *run*.

    Hard process death (``os._exit``) and hangs are only simulated in
    worker processes — in the parent (serial fallback) a would-be crash
    raises instead, so the degraded path stays survivable.
    """
    inject = run.get("inject")
    if not inject:
        return
    if inject == "error":
        raise RuntimeError(f"injected error in run {run['name']!r}")
    if inject == "crash" or (inject == "crash_once" and attempt == 1):
        if in_worker:
            os._exit(23)
        raise RuntimeError(
            f"injected crash in run {run['name']!r} (serial execution)")
    if inject == "hang" and in_worker:
        _time.sleep(3600.0)


def _build_and_run(run: Dict[str, Any]) -> Dict[str, Any]:
    """Build the scenario for one matrix cell, run it, condense the
    metrics snapshot into the result dict."""
    # Imported here: ``repro.shard`` imports this package for its
    # process start context, and needs no scenario builder.
    from ..scenario import ScenarioSpec, build_scenario, run_scenario

    trace_file = run.get("trace_file")
    if trace_file is not None:
        # One file per run: workers never share a sink, so the JSONL
        # stream cannot interleave across processes.
        Path(trace_file).parent.mkdir(parents=True, exist_ok=True)
    spec = ScenarioSpec(ports=int(run["ports"]), traffic=run["traffic"],
                        load=float(run["load"]), cells=int(run["cells"]),
                        seed=int(run["seed"]), level=run.get("level"),
                        lockstep=run["sync"] == "lockstep",
                        trace=trace_file)
    scenario = build_scenario(spec)
    env, entity = scenario.env, scenario.dut.entity
    level = scenario.dut.level

    start = _time.perf_counter()
    counts = run_scenario(scenario)
    wall = _time.perf_counter() - start

    report = scenario.compare(f"{run['name']}-records")
    if level == "behav":
        # No synchroniser ran: there are no exchanges to report.
        sync = {}
        sync_exchanges = 0
    else:
        sync = entity.sync.stats.as_dict()
        sync_exchanges = int(sync["messages_posted"]
                             + sync["null_messages"])
    hdl_clocks = counts["hdl_clocks"]
    instruments = env.metrics_registry.snapshot()
    latency = instruments["histograms"].get(
        "cosim.cell_ingress_latency_s")
    result: Dict[str, Any] = {
        "name": run["name"],
        "params": {"traffic": spec.traffic, "ports": spec.ports,
                   "seed": spec.seed, "sync": run["sync"],
                   "cells": spec.cells, "load": spec.load,
                   "level": level},
        "status": "ok",
        "passed": report.passed,
        "comparison": {
            "compared": report.compared,
            "matched": report.matched,
            "mismatched": len(report.mismatches),
            "missing": report.missing,
            "unexpected": report.unexpected,
        },
        "cells_in": counts["cells"],
        "records": len(scenario.dut.records()),
        "hdl_clocks": hdl_clocks,
        "hdl_events": counts["hdl_events"],
        "netsim_events": counts["netsim_events"],
        "sync": sync,
        "sync_exchanges": sync_exchanges,
        "latency": latency,
        "wall_s": wall,
        "cycles_per_s": hdl_clocks / wall if wall > 0 else 0.0,
    }
    if trace_file is not None:
        result["trace_file"] = trace_file
        result["trace_records"] = env.trace.emitted
    if env.provenance is not None:
        result["provenance"] = env.provenance.stats_snapshot()
    return result


def execute_run(run: Dict[str, Any], attempt: int = 1,
                in_worker: bool = True) -> Dict[str, Any]:
    """Execute one matrix cell; returns the run-result dict.

    Args:
        run: a :meth:`~repro.sweep.RunSpec.as_dict` payload.
        attempt: 1-based attempt number (failure injection can key on
            it to model crash-then-recover).
        in_worker: True inside a pool worker process; False for the
            parent's serial/fallback execution, where hard-death
            injection is softened into a raised exception.
    """
    _apply_injection(run, attempt, in_worker)
    return _build_and_run(run)
