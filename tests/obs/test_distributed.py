"""Shard telemetry payloads: span flattening, coverage counters,
plain-data/codec safety of ``repro.obs.distributed``."""

from types import SimpleNamespace

from repro.atm import AtmSwitch, make_setup_packet
from repro.netsim import Network, SinkModule
from repro.obs import (MetricsRegistry, ProvenanceTracker,
                       TELEMETRY_SCHEMA, build_telemetry, fsm_coverage,
                       hop_tail_coverage, residual_backlog,
                       spans_from_tracker, sync_window_coverage)


# ----------------------------------------------------------------------
# Span flattening
# ----------------------------------------------------------------------
def test_spans_from_tracker_flattens_journeys_with_shard():
    tracker = ProvenanceTracker()
    tracker.record_hop(0, "source", t=1.0)
    tracker.record_hop(0, "ingress", t=2.0, hdl_s=1.5)
    tracker.record_hop(1, "source", t=3.0)
    spans = spans_from_tracker(tracker, shard="edge")
    assert len(spans) == 3
    assert all(s["ev"] == "span" and s["shard"] == "edge"
               for s in spans)
    ingress = next(s for s in spans if s["hop"] == "ingress")
    assert ingress["cell"] == 0
    assert (ingress["t"], ingress["hdl_s"]) == (2.0, 1.5)
    # hops stamped in one domain only carry only that key
    source = next(s for s in spans if s["cell"] == 1)
    assert "hdl_s" not in source


def test_spans_from_tracker_without_shard_omits_the_key():
    tracker = ProvenanceTracker()
    tracker.record_hop(0, "source", t=0.5)
    (span,) = spans_from_tracker(tracker)
    assert "shard" not in span


# ----------------------------------------------------------------------
# Coverage counters
# ----------------------------------------------------------------------
def _switch_network():
    net = Network()
    switch = AtmSwitch(net, "sw", num_ports=2)
    for port in range(2):
        ep = net.add_node(f"ep{port}")
        sink = SinkModule("sink", keep=True)
        ep.add_module(sink)
        ep.bind_port_input(0, sink, 0)
        net.add_link(ep, 0, switch.node, port, rate_bps=155.52e6)
        net.add_link(switch.node, port, ep, 0, rate_bps=155.52e6)
    ctl = net.add_node("ctl")
    net.add_link(ctl, 0, switch.node, switch.control_port)
    return net, switch, ctl


def test_fsm_coverage_counts_gcu_states_visited():
    """The GCU FSM (the paper's control-unit process model) reports
    which of its states a run actually entered."""
    net, switch, ctl = _switch_network()
    packet = make_setup_packet(0, 1, 100, 1, 7, 700)
    net.kernel.schedule(0.0, lambda: ctl.transmit(packet, 0))
    net.run()
    coverage = fsm_coverage(net)
    assert coverage, "no FSM process models found"
    (name, entry), = [(k, v) for k, v in coverage.items()]
    assert entry["states"] > 0
    assert entry["visited"], "setup packet drove no FSM state"
    assert 0.0 < entry["fraction"] <= 1.0
    assert len(entry["visited"]) == \
        round(entry["fraction"] * entry["states"])


def test_fsm_coverage_empty_for_entity_only_environments():
    """Shard groups build entity-based DUTs, not netsim switch nodes
    — their networks legitimately carry no FSM process models."""
    assert fsm_coverage(Network()) == {}
    assert fsm_coverage(None) == {}


def test_sync_window_coverage_derives_occupancy():
    occupancy = sync_window_coverage(
        {"messages_posted": 30, "windows_granted": 10,
         "null_messages": 4})
    assert occupancy["messages_per_window"] == 3.0
    assert occupancy["messages_posted"] == 30
    assert sync_window_coverage(None)["messages_per_window"] == 0.0


def test_hop_tail_coverage_keeps_buckets_at_or_above_p50():
    registry = MetricsRegistry()
    hist = registry.histogram("prov.hop_s.post_to_release")
    for sample in (1e-6, 1e-6, 1e-6, 5e-4, 2e-2):
        hist.record(sample)
    registry.histogram("sync.lag_s").record(1e-3)  # filtered out
    coverage = hop_tail_coverage(registry.snapshot())
    assert list(coverage) == ["post_to_release"]
    entry = coverage["post_to_release"]
    assert entry["count"] == 5
    assert entry["max"] == 2e-2
    assert all(b["le"] == "inf" or b["le"] >= entry["p50"]
               for b in entry["tail"])
    # the tail still accounts for the slow samples
    assert sum(b["count"] for b in entry["tail"]) >= 2


def test_residual_backlog_totals_per_entity():
    backlog = residual_backlog([{"sender_backlog": 2},
                                {"sender_backlog": 0},
                                {"other": 9}])
    assert backlog == {"total": 2, "per_entity": [2, 0, 0]}


# ----------------------------------------------------------------------
# The payload itself
# ----------------------------------------------------------------------
def _duck_env(observe=True):
    registry = MetricsRegistry(enabled=observe)
    registry.counter("cosim.latency_unmatched")
    tracker = ProvenanceTracker(metrics=registry)
    tracker.record_hop(0, "source", t=0.0)
    tracker.record_hop(0, "sink", t=1e-5)
    return SimpleNamespace(metrics_registry=registry,
                           provenance=tracker, trace=None,
                           network=None)


def test_build_telemetry_payload_shape():
    payload = build_telemetry("edge", _duck_env(), level="behav",
                              sync={"messages_posted": 4,
                                    "windows_granted": 2},
                              entities=[{"sender_backlog": 1}])
    assert payload["schema"] == TELEMETRY_SCHEMA
    assert (payload["shard"], payload["level"]) == ("edge", "behav")
    assert payload["provenance"]["spans_recorded"] == 2
    assert [s["hop"] for s in payload["spans"]] == ["source", "sink"]
    assert payload["trace_records"] == 0
    coverage = payload["coverage"]
    assert set(coverage) == {"fsm_states", "sync_windows",
                             "hop_latency_tail", "residual_backlog"}
    assert coverage["sync_windows"]["messages_per_window"] == 2.0
    assert coverage["residual_backlog"]["total"] == 1
    assert "source_to_sink" in coverage["hop_latency_tail"]


def test_build_telemetry_is_tag_codec_safe():
    """The whole payload must survive the shard wire's no-pickle tag
    codec byte-for-byte — the property FRAME_TELEMETRY rides on."""
    from repro.shard.codec import decode_frame, encode_frame
    from repro.shard.protocol import FRAME_TELEMETRY
    payload = build_telemetry("edge", _duck_env(), level="behav",
                              sync={"messages_posted": 4},
                              entities=[{"sender_backlog": 0}])
    kind, decoded = decode_frame(
        memoryview(encode_frame((FRAME_TELEMETRY, payload))))
    assert kind == FRAME_TELEMETRY
    assert decoded == payload


def test_build_telemetry_disabled_registry_yields_empty_instruments():
    payload = build_telemetry("core", _duck_env(observe=False))
    assert payload["instruments"] == {"counters": {},
                                      "histograms": {}}
