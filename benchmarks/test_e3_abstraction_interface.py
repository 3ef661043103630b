"""E3 — abstraction interfaces and the time-scale gap (paper §3.2, Fig. 4).

Claims reproduced:

* one abstract cell event expands to 53 octet clocks in the HDL
  simulator (Figure 4), or 424 bit clocks — the paper's "ratio of
  1:400 for a simulation time step in OPNET and VSS";
* the mapping is lossless: struct -> bit-level -> struct is identity,
  including the generated cellsync control signal;
* "the number of events that event-driven simulators have to evaluate
  is an order of magnitude higher compared to the system-level
  simulation in OPNET" — measured directly from the two kernels'
  event counters.
"""


from repro.analysis import EventAccounting, ExperimentResult, format_table
from repro.atm import AtmCell
from repro.core import CellMapper, TimeBase
from repro.hdl import Simulator
from repro.rtl import CellReceiver, CellSender
from repro.scenario import ScenarioSpec, build_scenario, run_scenario

from .common import save_table, scaled

CELLS = scaled(60)


def test_e3_time_step_ratio(benchmark):
    """Figure 4's arithmetic: cell event vs HDL clock granularity."""
    tb = TimeBase.for_line_rate()
    rows = [
        ExperimentResult("octet-serial interface (Figure 4)", {
            "clocks_per_cell": tb.clocks_per_cell,
            "edges_per_cell": tb.time_step_ratio,
        }),
        ExperimentResult("bit-serial clock (paper's 1:400)", {
            "clocks_per_cell": TimeBase.bit_serial_ratio(),
            "edges_per_cell": 2 * TimeBase.bit_serial_ratio(),
        }),
    ]
    save_table("e3_time_step_ratio.txt", format_table(
        "E3a: network-simulator cell step vs HDL clock steps",
        ["clocks_per_cell", "edges_per_cell"], rows))
    assert tb.clocks_per_cell == 53
    assert TimeBase.bit_serial_ratio() == 424  # "1:400", exactly 424

    def measure():
        """One cell through an HDL stream costs >= 53 clock cycles."""
        sim = Simulator()
        clk = sim.signal("clk", init="0")
        sim.add_clock(clk, period=10)
        sender = CellSender(sim, "tx", clk)
        receiver = CellReceiver(sim, "rx", clk, sender.port)
        sender.send(AtmCell.with_payload(1, 1, [1]).to_octets())
        sim.run(until=10 * 80)
        first_cell_clock = sim.now
        return len(receiver.cells), receiver.cells

    count, cells = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert count == 1


def test_e3_mapping_round_trip_with_control_signals(benchmark):
    """struct -> 53-octet stream + cellsync -> struct is identity."""
    mapper = CellMapper()

    def run_once():
        sim = Simulator()
        clk = sim.signal("clk", init="0")
        sim.add_clock(clk, period=10)
        sender = CellSender(sim, "tx", clk)
        received = []
        syncs = []

        def watch(s):
            if clk.rising() and sender.port.cellsync.value == "1":
                syncs.append(sim.now)

        sim.add_process("sync_watch", watch, sensitivity=[clk])
        CellReceiver(sim, "rx", clk, sender.port,
                     on_cell=lambda octs: received.append(
                         mapper.octets_to_cell(octs)))
        cells = [AtmCell.with_payload(i + 1, 100 + i, [i], clp=i % 2)
                 for i in range(10)]
        for cell in cells:
            sender.send(mapper.cell_to_octets(cell))
        sim.run(until=10 * 53 * 14)
        return cells, received, syncs

    cells, received, syncs = benchmark.pedantic(run_once, rounds=1,
                                                iterations=1)
    assert received == cells          # lossless mapping
    assert len(syncs) == len(cells)   # one cellsync pulse per cell


def test_e3_event_count_gap(benchmark):
    """The conclusions' observation: HDL event counts dominate."""

    def run_once():
        scenario = build_scenario(ScenarioSpec(cells=CELLS))
        stats = run_scenario(scenario)
        env = scenario.env
        return EventAccounting(
            netsim_events=stats["netsim_events"],
            hdl_events=stats["hdl_events"],
            hdl_delta_cycles=env.hdl.delta_cycles,
            hdl_process_runs=env.hdl.process_runs), stats

    accounting, stats = benchmark.pedantic(run_once, rounds=1,
                                           iterations=1)
    rows = [
        ExperimentResult("network simulator (OPNET side)", {
            "events": accounting.netsim_events,
            "events_per_cell": accounting.netsim_events / CELLS,
        }),
        ExperimentResult("HDL simulator (VSS side)", {
            "events": accounting.hdl_events,
            "events_per_cell": accounting.hdl_events / CELLS,
        }),
        ExperimentResult("ratio (paper: 'order of magnitude')", {
            "events": accounting.event_ratio,
        }),
    ]
    save_table("e3_event_count_gap.txt", format_table(
        f"E3b: events per simulator for {CELLS} cells",
        ["events", "events_per_cell"], rows))
    assert accounting.event_ratio > 10, (
        f"expected >=10x event gap, got {accounting.event_ratio:.1f}")


def test_e3_interface_width_ablation(benchmark):
    """DESIGN.md ablation: wider interfaces shrink the time-scale gap
    (word-parallel hardware needs fewer clocks per cell)."""
    rows = []
    for octets in (1, 2, 4):
        tb = TimeBase.for_line_rate(octets_per_clock=octets)
        rows.append(ExperimentResult(f"{octets} octet(s)/clock", {
            "clocks_per_cell": tb.clocks_per_cell,
            "clock_period_ticks": tb.clock_period_ticks,
            "cell_time_us": tb.cell_time_seconds * 1e6,
        }))
    save_table("e3_interface_width.txt", format_table(
        "E3c: interface width vs clocks per cell",
        ["clocks_per_cell", "clock_period_ticks", "cell_time_us"], rows))
    assert rows[0]["clocks_per_cell"] > rows[2]["clocks_per_cell"]
    benchmark.pedantic(lambda: TimeBase.for_line_rate(), rounds=1,
                       iterations=1)
