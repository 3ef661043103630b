"""Determinism: identical runs produce identical results.

Test benches are only *regression* benches if re-running them is
bit-reproducible — the property every golden-result comparison in
this repository quietly depends on.
"""


from repro.atm import AtmCell
from repro.core import CoVerificationEnvironment
from repro.reference import EventClockedEnvironment
from repro.rtl import AtmPortModuleRtl
from repro.traffic import (MarkovModulatedPoisson, PoissonArrivals,
                           TrafficSource)
from repro.netsim import Network, SinkModule


def run_coverification_once(environment=CoVerificationEnvironment):
    env = environment()
    dut = AtmPortModuleRtl(env.hdl, "dut", env.clk)
    dut.install(1, 100, 2, 200)
    entity = env.add_dut(rx_port=dut.rx, tx_port=dut.tx)
    host = env.network.add_node("host")
    source = TrafficSource(
        "src", PoissonArrivals(rate=1e5, seed=42),
        packet_factory=lambda i: AtmCell.with_payload(
            1, 100, [i % 256]).to_packet(),
        count=20)
    tap = env.make_cell_tap("tap", entity, forward=False)
    host.add_module(source)
    host.add_module(tap)
    host.connect(source, 0, tap, 0)
    env.run()
    env.finish()
    return ([(round(t, 12), c.to_octets())
             for t, c in entity.output_cells],
            env.hdl.events_executed,
            env.network.kernel.executed_events)


def test_full_coverification_run_is_reproducible():
    assert run_coverification_once() == run_coverification_once()


def test_clocking_schemes_are_trace_identical():
    """Kernel-equivalence regression: the fast-dispatch cycle engine
    and the event-driven generator clock it replaced (the reference
    environment) must yield byte-identical DUT output cell streams,
    identical timestamps and identical kernel event counts."""
    cycle = run_coverification_once()
    event = run_coverification_once(EventClockedEnvironment)
    assert cycle[0] == event[0]     # (time, octets) byte-identical
    assert len(cycle[0]) == 20
    assert cycle[1] == event[1]     # same kernel events executed
    assert cycle[2] == event[2]     # same netsim events


def run_network_once(seed):
    net = Network()
    node = net.add_node("n")
    source = TrafficSource(
        "src", MarkovModulatedPoisson(rate_a=1e4, rate_b=1e5,
                                      mean_sojourn_a=1e-4,
                                      mean_sojourn_b=1e-4, seed=seed),
        count=200)
    sink = SinkModule("sink", keep=True)
    node.add_module(source)
    node.add_module(sink)
    node.connect(source, 0, sink, 0)
    net.run()
    return ([p.creation_time for p in sink.received],
            net.kernel.executed_events)


def test_network_simulation_is_reproducible():
    assert run_network_once(7) == run_network_once(7)


def test_different_seeds_differ():
    assert run_network_once(7) != run_network_once(8)


def test_hdl_simulation_is_reproducible():
    from repro.hdl import Simulator
    from repro.rtl import AtmPortModuleRtl, CellReceiver, CellSender

    def run():
        sim = Simulator()
        clk = sim.signal("clk", init="0")
        sim.add_clock(clk, period=10)
        dut = AtmPortModuleRtl(sim, "pm", clk)
        dut.install(1, 100, 2, 200)
        sender = CellSender(sim, "gen", clk, port=dut.rx, gap_octets=3)
        receiver = CellReceiver(sim, "mon", clk, dut.tx)
        for i in range(5):
            sender.send(AtmCell.with_payload(1, 100, [i]).to_octets())
        sim.run(until=10 * 500)
        return (receiver.cells, sim.events_executed,
                sim.delta_cycles, sim.process_runs)

    assert run() == run()
