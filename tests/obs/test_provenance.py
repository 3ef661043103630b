"""Tests for causal cell provenance (repro.obs.provenance)."""

import pytest

from repro.obs import (HOPS, MetricsRegistry, NULL_REGISTRY,
                       ProvenanceTracker, TRACE_ID_FIELD, TraceWriter)
from repro.netsim.packet import Packet

HOP_PREFIX = "prov.hop_s."


def hop_names(registry):
    """The ``<from>_to_<to>`` hop pairs with a latency histogram."""
    return sorted(name[len(HOP_PREFIX):]
                  for name in registry.snapshot()["histograms"]
                  if name.startswith(HOP_PREFIX))


def test_ids_are_monotone_and_stamped_on_packets():
    tracker = ProvenanceTracker()
    first = Packet(size_bits=424)
    second = Packet(size_bits=424)
    assert tracker.stamp(first, 0.0, source="src0") == 0
    assert tracker.stamp(second, 1e-6, source="src0") == 1
    assert first[TRACE_ID_FIELD] == 0
    assert second[TRACE_ID_FIELD] == 1
    assert tracker.cells_seen == 2


def test_invalid_sample_rejected():
    with pytest.raises(ValueError):
        ProvenanceTracker(sample=0)


def test_sampling_skips_non_multiple_ids():
    tracker = ProvenanceTracker(sample=4)
    for i in range(8):
        tracker.record_hop(i, "post", t=i * 1e-6)
    assert tracker.cells_sampled == 2  # ids 0 and 4
    assert tracker.spans_recorded == 2
    assert tracker.journey(1) is None
    assert tracker.journey(4) == {"post": (4e-6, None)}
    assert not tracker.sampled(3)
    assert tracker.sampled(4)
    assert not tracker.sampled(None)


def test_none_id_is_ignored():
    tracker = ProvenanceTracker()
    tracker.record_hop(None, "post", t=0.0)
    assert tracker.spans_recorded == 0


def test_span_records_carry_both_time_domains():
    trace = TraceWriter()
    tracker = ProvenanceTracker(trace=trace)
    tracker.record_hop(0, "post", t=1e-6, hdl_s=5e-7)
    tracker.record_hop(0, "ingress", hdl_s=2e-6)
    assert trace.records[0] == {"ev": "span", "cell": 0, "hop": "post",
                                "t": 1e-6, "hdl_s": 5e-7}
    assert "t" not in trace.records[1]  # absent stamps are omitted


def test_hop_latency_uses_canonical_predecessor():
    """The netsim sink arrival precedes the lagging HDL ingress of the
    same cell; pairing must follow HOPS order, not emission order."""
    registry = MetricsRegistry()
    tracker = ProvenanceTracker(metrics=registry)
    tracker.record_hop(0, "source", t=0.0)
    tracker.record_hop(0, "post", t=1e-6, hdl_s=0.0)
    tracker.record_hop(0, "release", t=1e-6, hdl_s=2e-6)
    tracker.record_hop(0, "sink", t=4e-6)       # arrives first (netsim)
    tracker.record_hop(0, "ingress", hdl_s=9e-6)  # HDL catches up later
    names = hop_names(registry)
    assert "release_to_sink" in names
    assert "release_to_ingress" in names
    assert "sink_to_ingress" not in names
    hists = registry.snapshot()["histograms"]
    # release->ingress differenced in the shared HDL domain
    assert hists["prov.hop_s.release_to_ingress"]["mean"] == \
        pytest.approx(7e-6)
    # post->release measures the sync queue wait, also in HDL seconds
    assert hists["prov.hop_s.post_to_release"]["mean"] == \
        pytest.approx(2e-6)


def test_non_canonical_hop_chains_to_last_recorded():
    registry = MetricsRegistry()
    tracker = ProvenanceTracker(metrics=registry)
    tracker.record_hop(0, "source", t=0.0)
    tracker.record_hop(0, "board", t=3e-6)  # not in HOPS
    assert "source_to_board" in hop_names(registry)


def test_disabled_registry_records_no_histograms():
    tracker = ProvenanceTracker(metrics=NULL_REGISTRY)
    tracker.record_hop(0, "source", t=0.0)
    tracker.record_hop(0, "post", t=1e-6)
    assert hop_names(NULL_REGISTRY) == []
    assert tracker.spans_recorded == 2  # counters still advance


def test_sink_hook_records_destination():
    trace = TraceWriter()
    tracker = ProvenanceTracker(trace=trace)
    packet = Packet(size_bits=424)
    tracker.stamp(packet, 0.0, source="src0")
    hook = tracker.sink_hook("sink0")
    hook(5e-6, packet)
    assert tracker.journey(0) == {"source": (0.0, None),
                                  "sink": (5e-6, None)}
    assert trace.records[-1]["dst"] == "sink0"


def test_stats_snapshot_shape():
    tracker = ProvenanceTracker(sample=2)
    packet = Packet(size_bits=424)
    tracker.stamp(packet, 0.0)
    assert tracker.stats_snapshot() == {
        "sample": 2, "cells_seen": 1, "cells_sampled": 1,
        "spans_recorded": 1}
    assert tuple(HOPS[:2]) == ("source", "post")
