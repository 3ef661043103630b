"""Tests for partial buffer sharing and the call-control FSM."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atm import (AtmCell, CallControlProcess, CallRequest,
                       PbsQueueModule, Tariff)
from repro.netsim import Network, ProcessorModule, SinkModule


def make_pbs(capacity=8, threshold=4, service_time=None):
    net = Network()
    node = net.add_node("n")
    queue = PbsQueueModule("pbs", capacity=capacity,
                           clp1_threshold=threshold,
                           service_time=service_time)
    node.add_module(queue)
    return net, node, queue


def cell_packet(clp):
    return AtmCell.with_payload(1, 100, [0], clp=clp).to_packet()


class TestPbsQueue:
    def test_clp0_fills_whole_buffer(self):
        net, node, queue = make_pbs(capacity=4, threshold=2)
        for _ in range(6):
            queue.receive(cell_packet(0), 0)
        assert len(queue) == 4
        assert queue.dropped_clp0 == 2
        assert queue.dropped_clp1 == 0

    def test_clp1_limited_to_threshold(self):
        net, node, queue = make_pbs(capacity=4, threshold=2)
        for _ in range(6):
            queue.receive(cell_packet(1), 0)
        assert len(queue) == 2
        assert queue.dropped_clp1 == 4

    def test_clp0_uses_headroom_above_threshold(self):
        net, node, queue = make_pbs(capacity=4, threshold=2)
        queue.receive(cell_packet(1), 0)
        queue.receive(cell_packet(1), 0)
        queue.receive(cell_packet(1), 0)   # at threshold: dropped
        queue.receive(cell_packet(0), 0)   # CLP0 still admitted
        queue.receive(cell_packet(0), 0)
        assert len(queue) == 4
        assert queue.dropped_clp1 == 1
        assert queue.accepted_clp0 == 2

    def test_threshold_zero_blocks_all_clp1(self):
        net, node, queue = make_pbs(capacity=4, threshold=0)
        queue.receive(cell_packet(1), 0)
        assert queue.dropped_clp1 == 1
        assert len(queue) == 0

    def test_service_drains_in_order(self):
        net, node, queue = make_pbs(capacity=8, threshold=8,
                                    service_time=1.0)
        sink = SinkModule("sink", keep=True)
        node.add_module(sink)
        node.connect(queue, 0, sink, 0)
        for clp in (0, 1, 0):
            queue.receive(cell_packet(clp), 0)
        net.run()
        assert [p["CLP"] for p in sink.received] == [0, 1, 0]

    def test_pop_passive_mode(self):
        net, node, queue = make_pbs()
        assert queue.pop() is None
        queue.receive(cell_packet(0), 0)
        assert queue.pop()["CLP"] == 0

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            PbsQueueModule("q", capacity=0, clp1_threshold=0)
        with pytest.raises(ValueError):
            PbsQueueModule("q", capacity=4, clp1_threshold=5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.data())
    def test_property_occupancy_never_exceeds_capacity(self, capacity,
                                                       data):
        threshold = data.draw(st.integers(0, capacity))
        clps = data.draw(st.lists(st.integers(0, 1), max_size=60))
        net, node, queue = make_pbs(capacity=capacity,
                                    threshold=threshold)
        for clp in clps:
            queue.receive(cell_packet(clp), 0)
            assert len(queue) <= capacity
        # conservation: every cell either queued or counted dropped
        assert (queue.accepted_clp0 + queue.accepted_clp1
                + queue.dropped_clp0 + queue.dropped_clp1) == len(clps)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.data())
    def test_property_clp1_never_above_threshold_occupancy(
            self, capacity, data):
        """A CLP1 cell is only ever admitted below the threshold."""
        threshold = data.draw(st.integers(0, capacity))
        clps = data.draw(st.lists(st.integers(0, 1), max_size=60))
        net, node, queue = make_pbs(capacity=capacity,
                                    threshold=threshold)
        for clp in clps:
            before = len(queue)
            accepted_before = queue.accepted_clp1
            queue.receive(cell_packet(clp), 0)
            if clp and queue.accepted_clp1 > accepted_before:
                assert before < threshold


def build_signaling_network(requests, wire_ack=True, **kwargs):
    """Host with a call-control agent, duplex control link to a
    switch."""
    from repro.atm import AtmSwitch
    net = Network()
    switch = AtmSwitch(net, "switch", num_ports=4)
    host = net.add_node("host")
    agent = CallControlProcess(requests, **kwargs)
    module = ProcessorModule("cc", agent)
    host.add_module(module)
    host.bind_port_output(0, module, 0)
    host.bind_port_input(0, module, 0)
    net.add_link(host, 0, switch.node, switch.control_port, delay=1e-5)
    if wire_ack:
        net.add_link(switch.node, switch.control_port, host, 0,
                     delay=1e-5)
    return net, switch, agent


class TestCallControl:
    def request(self, vci=100, hold=1e-3):
        return CallRequest(in_port=0, vpi=1, vci=vci, out_port=1,
                           out_vpi=1, out_vci=vci, hold_time=hold)

    def test_call_establishes_and_releases(self):
        net, switch, agent = build_signaling_network([self.request()])
        net.run(until=0.1)
        assert agent.calls_established == 1
        assert agent.calls_released == 1
        assert agent.state == "done"
        assert len(switch.table) == 0  # torn down again

    def test_connection_usable_while_held(self):
        net, switch, agent = build_signaling_network(
            [self.request(hold=1.0)])
        net.run(until=0.01)  # established, hold timer still running
        assert agent.state == "connected"
        assert (0, 1, 100) in dict(switch.table)

    def test_sequential_calls(self):
        requests = [self.request(vci=100), self.request(vci=200)]
        net, switch, agent = build_signaling_network(requests)
        net.run(until=0.1)
        assert agent.calls_established == 2
        assert agent.calls_released == 2

    def test_no_ack_leads_to_retries_then_failure(self):
        net, switch, agent = build_signaling_network(
            [self.request()], wire_ack=False,
            setup_timeout=1e-3, max_retries=2)
        net.run(until=0.1)
        assert agent.calls_failed == 1
        assert agent.calls_established == 0
        # original + 2 retries reached the GCU
        assert switch.gcu.control_messages == 3

    def test_tariff_registered_through_signalling(self):
        from repro.atm import AccountingUnit, AtmSwitch
        net = Network()
        accounting = AccountingUnit()
        switch = AtmSwitch(net, "switch", num_ports=2,
                           accounting=accounting)
        host = net.add_node("host")
        request = CallRequest(in_port=0, vpi=1, vci=100, out_port=1,
                              out_vpi=1, out_vci=100, hold_time=1.0,
                              tariff=Tariff(units_per_cell=2))
        module = ProcessorModule("cc", CallControlProcess([request]))
        host.add_module(module)
        host.bind_port_output(0, module, 0)
        host.bind_port_input(0, module, 0)
        net.add_duplex_link(host, 0, switch.node, switch.control_port)
        net.run(until=0.01)
        assert accounting.is_registered(1, 100)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            CallControlProcess([], setup_timeout=0)
        with pytest.raises(ValueError):
            CallControlProcess([], max_retries=-1)
