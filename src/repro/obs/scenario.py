"""The observed E1 reference scenario behind ``python -m repro stats``.

The paper's headline workload (E1): CBR sources on four ports of an
abstract ATM switch, with the RTL accounting unit coupled as the DUT
on the aggregate switched stream.  This module runs that scenario with
the observability layer enabled and returns one machine-readable
report — windows granted, null messages, the lag histogram, kernel
event counts and per-cell latency — the evidence base for the paper's
sync-cost and time-granularity claims.

The scenario is :mod:`repro.scenario`'s, with the DUT pinned to RTL.
"""

from __future__ import annotations

import time as _time
from pathlib import Path
from typing import Dict, Optional, Union

from ..scenario import ScenarioSpec, build_scenario, run_scenario
from .profile import attach_profiling

__all__ = ["run_observed_e1"]


def run_observed_e1(cells: int = 64, load: float = 0.25,
                    lockstep: bool = False,
                    trace: Optional[Union[str, Path]] = None,
                    sample: int = 1,
                    profile: bool = False) -> Dict[str, object]:
    """Run the observed E1 scenario; returns the metrics report.

    Args:
        cells: total cell budget across the four ports.
        load: per-port line occupancy of the CBR sources.
        lockstep: use the naive per-clock synchroniser (the E2
            ablation) instead of the conservative protocol.
        trace: optional JSON-lines trace sink path.
        sample: cell-provenance sampling — trace 1 in *sample* cell
            journeys (1 = every cell, 0 disables provenance).
        profile: attach wall-clock profiling spans to the four kernel
            hot paths (``prof.*`` histograms in the report).
    """
    scenario = build_scenario(ScenarioSpec(
        cells=cells, load=load, level="rtl", lockstep=lockstep,
        trace=trace, provenance_sample=sample))
    env = scenario.env
    if profile:
        attach_profiling(env)

    start = _time.perf_counter()
    # No record drain: the report counts the co-simulation itself.
    counts = run_scenario(scenario, drain=False)
    wall = _time.perf_counter() - start

    report = env.metrics()
    hdl_clocks = counts["hdl_clocks"]
    report["workload"] = {
        "scenario": "e1_accounting",
        "cells": max(1, cells // 4) * 4,
        "load": load,
        "hdl_clocks": hdl_clocks,
        "wall_s": wall,
        "cycles_per_s": hdl_clocks / wall if wall > 0 else 0.0,
    }
    return report
