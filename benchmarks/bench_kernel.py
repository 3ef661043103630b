"""Kernel performance benchmark — machine-readable perf tracking.

Measures the two hot paths the event-kernel overhaul targets and
writes ``BENCH_kernel.json`` and ``BENCH_e1.json`` at the repo root so
the performance trajectory is tracked across pull requests:

* **kernel** — the same RTL port-module bench clocked by the seed
  event-driven generator clock and by the :class:`CycleEngine` fast
  dispatch (the E6b shape), reporting wall time, simulated clock
  cycles per second and kernel event counters for both schemes;
* **e1** — the paper's headline workload (E1): co-simulation
  throughput of the accounting DUT under CASTANET versus the pure-RTL
  four-port bench, in DUT clock cycles per wall-clock second — plus
  the same scenario with the DUT swapped to its behavioural twin
  (the ``behav`` dimension; ``behav_vs_compiled`` must stay >= 1).

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_kernel.py

``REPRO_BENCH_SCALE`` scales the cell workload exactly as it does for
the pytest experiment tables (CI smoke-runs at 0.25).
"""

import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # script mode
    sys.path.insert(0, str(Path(__file__).parent))
    from common import (TIMEBASE, build_cosim_accounting,
                        build_pure_rtl_system, run_cosim_accounting,
                        save_bench_json, scale, scaled)
else:
    from .common import (TIMEBASE, build_cosim_accounting,
                         build_pure_rtl_system, run_cosim_accounting,
                         save_bench_json, scale, scaled)

from repro.atm import AtmCell
from repro.hdl import CycleEngine, Simulator
from repro.rtl import AtmPortModuleRtl, CellReceiver, CellSender


def _kernel_stats(sim):
    snapshot = sim.stats_snapshot()
    return {
        "events_executed": sim.events_executed,
        "signal_events": sim.signal_events,
        "delta_cycles": sim.delta_cycles,
        "process_runs": sim.process_runs,
        "compiled_components": snapshot["compiled_components"],
        "compiled_evals": snapshot["compiled_evals"],
        "compiled_commit_writes": snapshot["compiled_commit_writes"],
    }


def bench_kernel(cells=None):
    """Port-module RTL bench: both kernel clocks, and the cycle engine
    with every component kept on the event kernel (the
    compiled-vs-event dimension)."""
    cells = scaled(80) if cells is None else cells
    clocks = 53 * (cells + 6)

    def build(sim, clk):
        pm = AtmPortModuleRtl(sim, "pm", clk)
        pm.install(1, 100, 2, 200)
        sender = CellSender(sim, "gen", clk, port=pm.rx)
        receiver = CellReceiver(sim, "mon", clk, pm.tx)
        for i in range(cells):
            sender.send(AtmCell.with_payload(1, 100,
                                             [i % 256]).to_octets())
        return receiver

    configs = {
        "event": ("event", None),
        "cycle": ("cycle", None),
        "cycle_event_backend": ("cycle", "event"),
    }
    results = {}
    receivers = {}
    for key, (scheme, backend) in configs.items():
        sim = Simulator()
        if backend is not None:
            sim.rtl_backend = backend
        clk = sim.signal("clk", init="0")
        if scheme == "event":
            sim.add_clock(clk, period=10)
        else:
            CycleEngine(sim, clk, period=10)
        receivers[key] = build(sim, clk)
        start = time.perf_counter()
        sim.run(until=clocks * 10)
        wall = time.perf_counter() - start
        results[key] = {
            "wall_s": wall,
            "clocks": clocks,
            "cycles_per_s": clocks / wall,
            **_kernel_stats(sim),
        }

    cells_out = receivers["event"].cells
    for key, receiver in receivers.items():
        if receiver.cells != cells_out:
            raise AssertionError(
                f"configuration {key!r} diverged: output cell streams "
                "differ")
    payload = {
        "cells": cells,
        "event_driven": results["event"],
        "cycle_engine": results["cycle"],
        "event_backend": results["cycle_event_backend"],
        "speedup": (results["cycle"]["cycles_per_s"]
                    / results["event"]["cycles_per_s"]),
        "compiled_vs_event": (
            results["cycle"]["cycles_per_s"]
            / results["cycle_event_backend"]["cycles_per_s"]),
    }
    return payload


def bench_e1(cells=None):
    """E1 throughput: co-simulation vs the pure-RTL bench."""
    cells = scaled(160) if cells is None else cells

    # observability off: this benchmark tracks the raw kernel/protocol
    # throughput (the repro-stats scenario measures the observed run)
    env, dut, entity, reference = build_cosim_accounting(cells,
                                                         observe=False)
    start = time.perf_counter()
    cosim_stats = run_cosim_accounting(env, dut, entity, reference)
    cosim_wall = time.perf_counter() - start

    sim, run = build_pure_rtl_system(cells // 4)
    start = time.perf_counter()
    rtl_stats = run()
    rtl_wall = time.perf_counter() - start

    # the same pure-RTL bench with the event component backend forced
    # (the compiled-vs-event dimension of the E1 headline workload)
    sim_e, run_e = build_pure_rtl_system(cells // 4,
                                         rtl_backend="event")
    start = time.perf_counter()
    rtl_event_stats = run_e()
    rtl_event_wall = time.perf_counter() - start
    if rtl_event_stats["dut_cells"] != rtl_stats["dut_cells"]:
        raise AssertionError(
            "pure-RTL event/compiled backends diverged: "
            f"{rtl_event_stats['dut_cells']} vs "
            f"{rtl_stats['dut_cells']} DUT cells")

    # the same co-verification scenario with the DUT swapped to its
    # behavioural twin (the multi-abstraction dimension: no HDL
    # kernel, no synchroniser — the cheapest level of the swap)
    env_b, dut_b, entity_b, reference_b = build_cosim_accounting(
        cells, observe=False, level="behav")
    start = time.perf_counter()
    behav_stats = run_cosim_accounting(env_b, dut_b, entity_b,
                                       reference_b)
    behav_wall = time.perf_counter() - start
    if behav_stats["cells"] != cells:
        raise AssertionError(
            f"behavioural run processed {behav_stats['cells']} of "
            f"{cells} cells")

    if cosim_stats["cells"] != cells:
        raise AssertionError(
            f"co-sim processed {cosim_stats['cells']} of {cells} cells")
    cosim_rate = cosim_stats["hdl_clocks"] / cosim_wall
    rtl_rate = rtl_stats["hdl_clocks"] / rtl_wall
    rtl_event_rate = rtl_event_stats["hdl_clocks"] / rtl_event_wall
    behav_rate = behav_stats["hdl_clocks"] / behav_wall
    payload = {
        "cells": cells,
        "clock_period_ticks": TIMEBASE.clock_period_ticks,
        "cosim": {
            "wall_s": cosim_wall,
            "hdl_clocks": cosim_stats["hdl_clocks"],
            "cycles_per_s": cosim_rate,
            "hdl_events": cosim_stats["hdl_events"],
            "netsim_events": cosim_stats["netsim_events"],
        },
        "pure_rtl": {
            "wall_s": rtl_wall,
            "hdl_clocks": rtl_stats["hdl_clocks"],
            "cycles_per_s": rtl_rate,
            "hdl_events": rtl_stats["hdl_events"],
        },
        "pure_rtl_event": {
            "wall_s": rtl_event_wall,
            "hdl_clocks": rtl_event_stats["hdl_clocks"],
            "cycles_per_s": rtl_event_rate,
            "hdl_events": rtl_event_stats["hdl_events"],
        },
        "behav": {
            "wall_s": behav_wall,
            "hdl_clocks": behav_stats["hdl_clocks"],
            "cycles_per_s": behav_rate,
            "netsim_events": behav_stats["netsim_events"],
        },
        "cosim_vs_rtl": cosim_rate / rtl_rate,
        "compiled_vs_event": rtl_rate / rtl_event_rate,
        "behav_vs_compiled": behav_rate / cosim_rate,
    }
    return payload


def main():
    print(f"kernel benchmark (REPRO_BENCH_SCALE={scale():g})")
    kernel = bench_kernel()
    path = save_bench_json("kernel", kernel)
    print(f"  event-driven : {kernel['event_driven']['cycles_per_s']:>10.0f} cyc/s "
          f"({kernel['event_driven']['wall_s']:.3f} s)")
    print(f"  cycle engine : {kernel['cycle_engine']['cycles_per_s']:>10.0f} cyc/s "
          f"({kernel['cycle_engine']['wall_s']:.3f} s)")
    print(f"  event backend: {kernel['event_backend']['cycles_per_s']:>10.0f} cyc/s "
          f"({kernel['event_backend']['wall_s']:.3f} s)")
    print(f"  speed-up     : {kernel['speedup']:.2f}x "
          f"(compiled vs event {kernel['compiled_vs_event']:.2f}x)"
          f"  -> {path}")

    e1 = bench_e1()
    path = save_bench_json("e1", e1)
    print(f"  co-simulation: {e1['cosim']['cycles_per_s']:>10.0f} cyc/s "
          f"({e1['cosim']['wall_s']:.3f} s)")
    print(f"  pure RTL     : {e1['pure_rtl']['cycles_per_s']:>10.0f} cyc/s "
          f"({e1['pure_rtl']['wall_s']:.3f} s)")
    print(f"  pure RTL (ev): {e1['pure_rtl_event']['cycles_per_s']:>10.0f} cyc/s "
          f"({e1['pure_rtl_event']['wall_s']:.3f} s)")
    print(f"  behavioural  : {e1['behav']['cycles_per_s']:>10.0f} cyc/s "
          f"({e1['behav']['wall_s']:.3f} s)")
    print(f"  cosim/RTL    : {e1['cosim_vs_rtl']:.2f}x "
          f"(compiled vs event {e1['compiled_vs_event']:.2f}x, "
          f"behav vs compiled {e1['behav_vs_compiled']:.2f}x)"
          f"  -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
