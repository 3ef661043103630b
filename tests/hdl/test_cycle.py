"""Tests for the cycle-based clock engine (E6 substrate).

Since the hot-path overhaul the engine is the default clocking scheme
of the co-verification environment, so this file also carries the
kernel-equivalence regression: the same RTL design clocked by the seed
event-driven generator clock and by the engine's fast dispatch must
produce identical VCD traces, identical output cell streams and
identical kernel event counts.
"""

import pytest

from repro.atm import AtmCell
from repro.hdl import CycleEngine, RisingEdge, Simulator, VcdWriter
from repro.rtl import (AtmSwitchRtl, CellReceiver, CellSender, Counter)


def test_cycle_engine_advances_time():
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    engine = CycleEngine(sim, clk, period=10)
    engine.run_cycles(7)
    assert sim.now == 70
    assert engine.cycles_run == 7


def test_clocked_process_sees_identical_behaviour():
    """A counter gives the same result under both clocking schemes."""
    # event-driven
    sim_e = Simulator()
    clk_e = sim_e.signal("clk", init="0")
    sim_e.add_clock(clk_e, period=10)
    counter_e = Counter(sim_e, "c", clk_e, width=8)
    sim_e.run(until=200)

    # cycle-based
    sim_c = Simulator()
    clk_c = sim_c.signal("clk", init="0")
    counter_c = Counter(sim_c, "c", clk_c, width=8)
    CycleEngine(sim_c, clk_c, period=10).run_cycles(20)

    assert counter_c.q.as_int() == counter_e.q.as_int() == 20


def test_generator_edge_waits_still_work():
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    hits = []

    def waiter():
        for _ in range(3):
            yield RisingEdge(clk)
            hits.append(sim.now)

    sim.add_generator("w", waiter())
    CycleEngine(sim, clk, period=10).run_cycles(5)
    assert len(hits) == 3


def test_timed_events_are_honoured():
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    s = sim.signal("s", init="0")
    s.drive("1", delay=25)
    CycleEngine(sim, clk, period=10).run_cycles(4)
    assert s.value == "1"


def test_cycle_based_uses_fewer_kernel_events():
    """The whole point: fewer scheduler operations per cycle."""
    def build(use_cycle_engine):
        sim = Simulator()
        clk = sim.signal("clk", init="0")
        Counter(sim, "c", clk, width=16)
        if use_cycle_engine:
            CycleEngine(sim, clk, period=10).run_cycles(500)
        else:
            sim.add_clock(clk, period=10)
            sim.run(until=5000)
        return sim

    event_driven = build(False)
    cycle_based = build(True)
    assert cycle_based.process_runs < event_driven.process_runs


def test_invalid_configs():
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    with pytest.raises(ValueError):
        CycleEngine(sim, clk, period=1)
    with pytest.raises(ValueError):
        CycleEngine(sim, clk, period=10, duty_ticks=10)


def test_only_one_engine_attaches():
    from repro.hdl import SimulationError
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    CycleEngine(sim, clk, period=10)
    with pytest.raises(SimulationError):
        CycleEngine(sim, clk, period=10)


def test_attached_engine_drives_sim_run():
    """sim.run(until=...) is engine-driven when an engine is attached:
    same edge schedule as the generator clock, no heap traffic."""
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    CycleEngine(sim, clk, period=10)
    transitions = []
    sim.add_process("watch",
                    lambda s: transitions.append((s.now, clk.value)),
                    sensitivity=[clk])
    sim.run(until=30)
    assert sim.now == 30
    # same sequence the event-driven clock produces (test_clock_toggles)
    assert transitions == [(0, "0"), (5, "1"), (10, "0"), (15, "1"),
                           (20, "0"), (25, "1"), (30, "0")]
    # resume from the middle of a period
    sim.run(until=47)
    assert sim.now == 47
    assert transitions[-1] == (45, "1")
    assert clk.value == "1"


# ---------------------------------------------------------------------------
# Kernel-equivalence regression (tentpole guarantee)
# ---------------------------------------------------------------------------

def _build_fabric_bench(sim, clk, cells=6):
    """A small switch-fabric DUT with octet-serial senders/monitors."""
    fabric = AtmSwitchRtl(sim, "fabric", clk, num_ports=2,
                          queue_depth=16)
    receivers = []
    for port in range(2):
        vci = 100 + port
        fabric.install_connection(port, 1, vci, (port + 1) % 2, 1, vci)
        sender = CellSender(sim, f"gen{port}", clk,
                            port=fabric.rx_ports[port])
        receivers.append(CellReceiver(sim, f"mon{port}", clk,
                                      fabric.tx_ports[port]))
        for i in range(cells):
            sender.send(AtmCell.with_payload(1, vci, [i]).to_octets())
    return fabric, receivers


def _run_fabric(clocking, vcd_path, ticks=53 * 12 * 10):
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    if clocking == "event":
        sim.add_clock(clk, period=10)
    else:
        CycleEngine(sim, clk, period=10)
    fabric, receivers = _build_fabric_bench(sim, clk)
    watched = [clk]
    for port in fabric.rx_ports + fabric.tx_ports:
        watched.extend(port.signals())
    with VcdWriter(sim, vcd_path, watched):
        sim.run(until=ticks)
    return sim, receivers, vcd_path.read_text()


def test_switch_fabric_trace_identical_under_both_clocks(tmp_path):
    """The fast-dispatch cycle path must be trace-identical to the
    seed event-driven clock: same VCD dump, byte-identical output cell
    streams, same kernel event counts."""
    sim_e, recv_e, vcd_e = _run_fabric("event", tmp_path / "event.vcd")
    sim_c, recv_c, vcd_c = _run_fabric("cycle", tmp_path / "cycle.vcd")

    assert vcd_c == vcd_e                       # identical waveforms
    for a, b in zip(recv_c, recv_e):
        assert a.cells == b.cells               # byte-identical cells
        assert a.framing_errors == b.framing_errors == 0
    assert sum(len(r.cells) for r in recv_c) == 12
    assert sim_c.events_executed == sim_e.events_executed
    assert sim_c.signal_events == sim_e.signal_events
    assert sim_c.now == sim_e.now
    # ... while doing strictly less scheduling work
    assert sim_c.process_runs < sim_e.process_runs
