"""Integration tests for the abstract ATM switch model."""

import pytest

from repro.atm import (AccountingUnit, AtmCell, AtmSwitch, STM1_CELL_TIME,
                       Tariff, make_setup_packet, make_teardown_packet)
from repro.netsim import Network, SinkModule


def build_switch_network(num_ports=4, accounting=None, tariff_interval=None,
                         queue_capacity=64):
    """A switch with one traffic endpoint node per port."""
    net = Network()
    switch = AtmSwitch(net, "sw", num_ports=num_ports,
                       accounting=accounting,
                       tariff_interval=tariff_interval,
                       queue_capacity=queue_capacity)
    endpoints = []
    for port in range(num_ports):
        ep = net.add_node(f"ep{port}")
        sink = SinkModule("sink", keep=True)
        ep.add_module(sink)
        ep.bind_port_input(0, sink, 0)
        net.add_link(ep, 0, switch.node, port, rate_bps=155.52e6)
        net.add_link(switch.node, port, ep, 0, rate_bps=155.52e6)
        endpoints.append(ep)
    # control endpoint
    ctl = net.add_node("ctl")
    net.add_link(ctl, 0, switch.node, switch.control_port)
    return net, switch, endpoints, ctl


def send_cell(endpoint, cell, when, kernel):
    kernel.schedule(when, lambda: endpoint.transmit(cell.to_packet(when), 0))


def test_cell_routed_and_translated():
    net, switch, eps, _ctl = build_switch_network()
    switch.install_connection(0, 1, 100, 2, 7, 700)
    cell = AtmCell.with_payload(1, 100, [42])
    send_cell(eps[0], cell, 0.0, net.kernel)
    net.run()
    received = eps[2].modules["sink"].received
    assert len(received) == 1
    out = AtmCell.from_packet(received[0])
    assert (out.vpi, out.vci) == (7, 700)
    assert out.payload[0] == 42
    assert switch.cells_switched == 1


def test_unknown_connection_dropped():
    net, switch, eps, _ctl = build_switch_network()
    send_cell(eps[0], AtmCell.with_payload(9, 999, []), 0.0, net.kernel)
    net.run()
    assert switch.cells_dropped == 1
    assert all(not ep.modules["sink"].received for ep in eps)


def test_idle_cells_stripped():
    net, switch, eps, _ctl = build_switch_network()
    send_cell(eps[0], AtmCell.idle(), 0.0, net.kernel)
    net.run()
    assert switch.ports[0].idle_cells == 1
    assert switch.cells_switched == 0
    assert switch.cells_dropped == 0


def test_same_vpi_vci_different_input_ports():
    net, switch, eps, _ctl = build_switch_network()
    switch.install_connection(0, 1, 100, 1, 1, 100)
    switch.install_connection(2, 1, 100, 3, 1, 100)
    send_cell(eps[0], AtmCell.with_payload(1, 100, [1]), 0.0, net.kernel)
    send_cell(eps[2], AtmCell.with_payload(1, 100, [2]), 0.0, net.kernel)
    net.run()
    assert len(eps[1].modules["sink"].received) == 1
    assert len(eps[3].modules["sink"].received) == 1


def test_gcu_setup_via_control_message():
    net, switch, eps, ctl = build_switch_network()
    setup = make_setup_packet(0, 1, 100, 3, 2, 200)
    net.kernel.schedule(0.0, lambda: ctl.transmit(setup, 0))
    send_cell(eps[0], AtmCell.with_payload(1, 100, []), 1e-3, net.kernel)
    net.run()
    assert switch.gcu.control_messages == 1
    received = eps[3].modules["sink"].received
    assert len(received) == 1
    assert AtmCell.from_packet(received[0]).vci == 200


def test_gcu_teardown_via_control_message():
    net, switch, eps, ctl = build_switch_network()
    switch.install_connection(0, 1, 100, 1, 1, 100)
    teardown = make_teardown_packet(0, 1, 100)
    net.kernel.schedule(0.0, lambda: ctl.transmit(teardown, 0))
    send_cell(eps[0], AtmCell.with_payload(1, 100, []), 1e-3, net.kernel)
    net.run()
    assert switch.cells_dropped == 1


def test_gcu_rejects_bogus_control_message():
    net, switch, eps, ctl = build_switch_network()
    from repro.netsim import Packet
    bogus = Packet(fields={"op": "reboot"})
    net.kernel.schedule(0.0, lambda: ctl.transmit(bogus, 0))
    net.run()
    assert switch.gcu.rejected_messages == 1


def test_teardown_of_unknown_connection_rejected():
    net, switch, eps, ctl = build_switch_network()
    net.kernel.schedule(
        0.0, lambda: ctl.transmit(make_teardown_packet(0, 9, 9), 0))
    net.run()
    assert switch.gcu.rejected_messages == 1


def test_accounting_integration():
    accounting = AccountingUnit()
    net, switch, eps, _ctl = build_switch_network(accounting=accounting)
    switch.install_connection(0, 1, 100, 1, 1, 100,
                              tariff=Tariff(units_per_cell=1))
    for i in range(10):
        send_cell(eps[0], AtmCell.with_payload(1, 100, []),
                  i * STM1_CELL_TIME * 4, net.kernel)
    net.run()
    record, = accounting.close_interval()
    assert (record.cells_clp0, record.cells_clp1) == (10, 0)


def test_tariff_interval_timer():
    accounting = AccountingUnit()
    net, switch, eps, _ctl = build_switch_network(
        accounting=accounting, tariff_interval=1.0)
    switch.install_connection(0, 1, 100, 1, 1, 100,
                              tariff=Tariff(units_per_cell=1))
    net.run(until=3.5)
    assert accounting.interval == 3  # intervals closed at t=1,2,3


def test_output_queue_overflow_drops():
    """Two full-rate inputs converging on one output overflow its queue.

    A single input cannot overflow anything — the input link already
    serialises cells to the line rate the output drains at — so the
    test aggregates ports 0 and 2 onto output port 1.
    """
    net, switch, eps, _ctl = build_switch_network(queue_capacity=2)
    switch.install_connection(0, 1, 100, 1, 1, 100)
    switch.install_connection(2, 1, 100, 1, 1, 101)
    for i in range(25):
        when = i * STM1_CELL_TIME
        send_cell(eps[0], AtmCell.with_payload(1, 100, []), when,
                  net.kernel)
        send_cell(eps[2], AtmCell.with_payload(1, 100, []), when,
                  net.kernel)
    net.run()
    assert switch.total_queue_drops() > 0
    received = len(eps[1].modules["sink"].received)
    assert received + switch.total_queue_drops() == 50


def test_output_serialisation_rate():
    """Cells leave an output port no faster than one per cell time."""
    net, switch, eps, _ctl = build_switch_network(queue_capacity=None)
    switch.install_connection(0, 1, 100, 1, 1, 100)
    for i in range(10):
        send_cell(eps[0], AtmCell.with_payload(1, 100, []), 0.0, net.kernel)
    net.run()
    sink = eps[1].modules["sink"]
    assert len(sink.received) == 10
    # 10 cells each needing one cell_time of queue service, plus line
    # serialisation of the last cell.
    assert sink.last_arrival >= 10 * STM1_CELL_TIME


def test_switch_requires_ports():
    net = Network()
    with pytest.raises(ValueError):
        AtmSwitch(net, "bad", num_ports=0)


def test_install_connection_validates_port():
    net = Network()
    switch = AtmSwitch(net, "sw", num_ports=2)
    with pytest.raises(ValueError):
        switch.install_connection(0, 1, 1, 5, 1, 1)
