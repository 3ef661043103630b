"""Unit tests for node modules, streams, ports and links."""

import pytest

from repro.netsim import (LinkError, Network, Packet, QueueModule,
                          SinkModule, WiringError)


def test_queue_fifo_order():
    net = Network()
    node = net.add_node("n")
    q = QueueModule("q")
    node.add_module(q)
    for i in range(3):
        q.receive(Packet(fields={"i": i}), 0)
    assert [q.pop()["i"] for i in range(3)] == [0, 1, 2]
    assert q.pop() is None


def test_queue_capacity_drops_overflow():
    net = Network()
    node = net.add_node("n")
    q = QueueModule("q", capacity=2)
    node.add_module(q)
    for i in range(5):
        q.receive(Packet(), 0)
    assert len(q) == 2
    assert q.dropped == 3
    assert q.max_occupancy == 2


def test_queue_autonomous_service():
    net = Network()
    node = net.add_node("n")
    q = QueueModule("q", service_time=1.0)
    sink = SinkModule("s", keep=True)
    node.add_module(q)
    node.add_module(sink)
    node.connect(q, 0, sink, 0)
    for _ in range(3):
        q.receive(Packet(), 0)
    net.run()
    assert len(sink.received) == 3
    assert sink.last_arrival == 3.0  # one per service_time


def test_double_wiring_rejected():
    net = Network()
    node = net.add_node("n")
    q = QueueModule("q", service_time=1.0)
    s1 = SinkModule("s1")
    s2 = SinkModule("s2")
    for m in (q, s1, s2):
        node.add_module(m)
    node.connect(q, 0, s1, 0)
    with pytest.raises(WiringError):
        node.connect(q, 0, s2, 0)


def test_unwired_send_raises():
    net = Network()
    node = net.add_node("n")
    q = QueueModule("q")
    node.add_module(q)
    with pytest.raises(WiringError):
        q.send(Packet())


def test_duplicate_module_name_rejected():
    net = Network()
    node = net.add_node("n")
    node.add_module(SinkModule("s"))
    with pytest.raises(WiringError):
        node.add_module(SinkModule("s"))


def test_duplicate_node_name_rejected():
    net = Network()
    net.add_node("n")
    with pytest.raises(WiringError):
        net.add_node("n")


def test_link_delivers_with_propagation_delay():
    net = Network()
    a = net.add_node("a")
    b = net.add_node("b")
    sink = SinkModule("s", keep=True)
    b.add_module(sink)
    b.bind_port_input(0, sink, 0)
    net.add_link(a, 0, b, 0, rate_bps=None, delay=2.5)
    a.transmit(Packet(), 0)
    net.run()
    assert sink.last_arrival == 2.5


def test_link_serialization_time():
    net = Network()
    a = net.add_node("a")
    b = net.add_node("b")
    sink = SinkModule("s", keep=True)
    b.add_module(sink)
    b.bind_port_input(0, sink, 0)
    link = net.add_link(a, 0, b, 0, rate_bps=100.0, delay=0.0)
    pkt = Packet(size_bits=50)
    assert link.serialization_time(pkt) == 0.5
    a.transmit(pkt, 0)
    net.run()
    assert sink.last_arrival == 0.5


def test_link_back_to_back_serialisation():
    """Two cells sent at t=0 leave the link one serialisation apart."""
    net = Network()
    a = net.add_node("a")
    b = net.add_node("b")
    sink = SinkModule("s", keep=True)
    b.add_module(sink)
    b.bind_port_input(0, sink, 0)
    net.add_link(a, 0, b, 0, rate_bps=424.0)  # 1 cell/s for 424-bit cells
    a.transmit(Packet(size_bits=424), 0)
    a.transmit(Packet(size_bits=424), 0)
    net.run()
    assert sink.packets_in == 2
    assert sink.last_arrival == pytest.approx(2.0)


def test_invalid_link_configs_rejected():
    net = Network()
    a = net.add_node("a")
    b = net.add_node("b")
    with pytest.raises(LinkError):
        net.add_link(a, 0, b, 0, rate_bps=0.0)
    with pytest.raises(LinkError):
        net.add_link(a, 1, b, 1, delay=-1.0)


def test_two_links_same_port_rejected():
    net = Network()
    a = net.add_node("a")
    b = net.add_node("b")
    c = net.add_node("c")
    for n in (b, c):
        s = SinkModule("s")
        n.add_module(s)
        n.bind_port_input(0, s, 0)
    net.add_link(a, 0, b, 0)
    with pytest.raises(WiringError):
        net.add_link(a, 0, c, 0)


def test_duplex_link_creates_two_simplex_links():
    net = Network()
    a = net.add_node("a")
    b = net.add_node("b")
    for n in (a, b):
        s = SinkModule("s", keep=True)
        n.add_module(s)
        n.bind_port_input(0, s, 0)
    links = net.add_duplex_link(a, 0, b, 0, delay=1.0)
    assert len(links) == 2
    a.transmit(Packet(), 0)
    b.transmit(Packet(), 0)
    net.run()
    assert a.modules["s"].packets_in == 1
    assert b.modules["s"].packets_in == 1


def test_unbound_port_delivery_raises():
    net = Network()
    a = net.add_node("a")
    with pytest.raises(WiringError):
        a.deliver(Packet(), 3)


def test_transmit_without_link_raises():
    net = Network()
    a = net.add_node("a")
    with pytest.raises(WiringError):
        a.transmit(Packet(), 0)


def test_bind_port_output_routes_module_to_link():
    net = Network()
    a = net.add_node("a")
    b = net.add_node("b")
    q = QueueModule("q", service_time=1.0)
    a.add_module(q)
    a.bind_port_output(0, q, 0)
    sink = SinkModule("s", keep=True)
    b.add_module(sink)
    b.bind_port_input(0, sink, 0)
    net.add_link(a, 0, b, 0, delay=0.5)
    q.receive(Packet(), 0)
    net.run()
    assert sink.last_arrival == 1.5
