"""Integration tests: traffic sources feeding a network model."""


from repro.netsim import Network, Packet, SinkModule
from repro.traffic import ConstantBitRate, PoissonArrivals, TrafficSource

from .helpers import sample_arrivals


def build_source_sink(arrivals, count=None, packet_factory=None):
    net = Network()
    node = net.add_node("n")
    src = TrafficSource("src", arrivals, count=count,
                        packet_factory=packet_factory)
    sink = SinkModule("sink", keep=True)
    node.add_module(src)
    node.add_module(sink)
    node.connect(src, 0, sink, 0)
    return net, src, sink


def test_cbr_source_emits_on_schedule():
    net, src, sink = build_source_sink(ConstantBitRate(period=1.0), count=5)
    net.run()
    assert src.emitted == 5
    assert [p.creation_time for p in sink.received] == [1, 2, 3, 4, 5]


def test_default_packets_are_atm_cell_sized():
    net, src, sink = build_source_sink(ConstantBitRate(period=1.0), count=2)
    net.run()
    assert all(p.size_bits == 424 for p in sink.received)
    assert [p["seq"] for p in sink.received] == [0, 1]


def test_custom_packet_factory():
    factory = lambda i: Packet(size_bits=8, fields={"VPI": i % 3})
    net, src, sink = build_source_sink(ConstantBitRate(period=0.5),
                                       count=6, packet_factory=factory)
    net.run()
    assert [p["VPI"] for p in sink.received] == [0, 1, 2, 0, 1, 2]


def test_unbounded_source_with_run_until():
    net, src, sink = build_source_sink(ConstantBitRate(period=1.0))
    net.run(until=10.5)
    assert src.emitted == 10


def test_poisson_source_count_matches():
    net, src, sink = build_source_sink(PoissonArrivals(rate=100.0, seed=1),
                                       count=50)
    net.run()
    assert len(sink.received) == 50


def test_sample_arrivals_resets_first():
    p = PoissonArrivals(rate=10.0, seed=5)
    a = sample_arrivals(p, 10)
    b = sample_arrivals(p, 10)
    assert a == b
    assert a == sorted(a)
