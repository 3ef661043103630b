"""Telemetry merging: counter sums, histogram bucket-merges, span
streams, coverage recombination and the multi-process Chrome export."""

import pytest

from repro.obs import (Histogram, MetricsRegistry, export_chrome_trace,
                       merge_counters, merge_coverage, merge_histograms,
                       merge_instrument_snapshots, merge_spans,
                       merge_telemetry, validate_chrome_trace)
from repro.obs.chrome import PID
from repro.reference import flow_processes, flow_tracks


# ----------------------------------------------------------------------
# Counters and histograms
# ----------------------------------------------------------------------
def test_merge_counters_sums_by_name():
    merged = merge_counters([{"a": 1, "b": 2}, {"b": 3, "c": 4}])
    assert merged == {"a": 1, "b": 5, "c": 4}
    assert list(merged) == ["a", "b", "c"]  # sorted


def test_merge_histograms_matches_one_big_histogram():
    """Bucket-merging two snapshots must reproduce exactly what one
    histogram fed all the samples would have reported — count, total,
    min/max, buckets AND the approximate quantiles."""
    left_samples = [1e-6, 3e-6, 2e-3, 0.4]
    right_samples = [5e-7, 8e-3, 8e-3, 7.0]  # 7.0 overflows 5 s
    whole = Histogram("ref")
    left = Histogram("l")
    right = Histogram("r")
    for s in left_samples:
        whole.record(s)
        left.record(s)
    for s in right_samples:
        whole.record(s)
        right.record(s)
    merged = merge_histograms([left.as_dict(), right.as_dict()])
    reference = whole.as_dict()
    # float summation order differs by one ulp on total/mean
    assert merged.pop("total") == pytest.approx(reference.pop("total"))
    assert merged.pop("mean") == pytest.approx(reference.pop("mean"))
    assert merged == reference


def test_merge_histograms_empty_inputs():
    merged = merge_histograms([])
    assert merged["count"] == 0
    assert merged["p50"] is None and merged["p99"] is None
    assert merged["buckets"] == []


def test_merge_instrument_snapshots_folds_both_kinds():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.counter("n.posts").inc(2)
    b.counter("n.posts").inc(3)
    b.counter("n.only_b").inc(1)
    a.histogram("lat").record(1e-4)
    b.histogram("lat").record(2e-4)
    merged = merge_instrument_snapshots([a.snapshot(), b.snapshot()])
    assert merged["counters"] == {"n.only_b": 1, "n.posts": 5}
    assert merged["histograms"]["lat"]["count"] == 2


# ----------------------------------------------------------------------
# Span streams
# ----------------------------------------------------------------------
def test_merge_spans_orders_by_time_and_tags_domains():
    edge = [{"ev": "span", "cell": 1, "hop": "source", "t": 0.3,
             "shard": "edge"},
            {"ev": "span", "cell": 1, "hop": "shard_out", "t": 0.5,
             "shard": "edge"}]
    core = [{"ev": "span", "cell": 1, "hop": "shard_in", "t": 0.4,
             "shard": "core"},
            {"ev": "span", "cell": 1, "hop": "ingress", "t": 0.6,
             "hdl_s": 0.55, "shard": "core"},
            {"ev": "span", "cell": 2, "hop": "dut_out",
             "hdl_s": 0.1, "shard": "core"}]
    merged = merge_spans([edge, core])
    assert [s["hop"] for s in merged] == \
        ["dut_out", "source", "shard_in", "shard_out", "ingress"]
    domains = {s["hop"]: s["domain"] for s in merged}
    assert domains["source"] == "t"
    assert domains["dut_out"] == "hdl"
    assert domains["ingress"] == "both"
    # inputs are not mutated
    assert "domain" not in edge[0]


# ----------------------------------------------------------------------
# Coverage recombination
# ----------------------------------------------------------------------
def test_merge_coverage_unions_fsm_and_sums_windows():
    payloads = [
        {"coverage": {
            "fsm_states": {"gcu": {"visited": ["INIT", "SETUP"],
                                   "states": 4}},
            "sync_windows": {"messages_posted": 10,
                             "windows_granted": 5,
                             "messages_per_window": 2.0},
            "residual_backlog": {"total": 1, "per_entity": [1]}}},
        {"coverage": {
            "fsm_states": {"gcu": {"visited": ["INIT", "TEARDOWN"],
                                   "states": 4}},
            "sync_windows": {"messages_posted": 20,
                             "windows_granted": 5,
                             "messages_per_window": 4.0},
            "residual_backlog": {"total": 0, "per_entity": [0]}}},
    ]
    merged = merge_coverage(payloads)
    gcu = merged["fsm_states"]["gcu"]
    assert gcu["visited"] == ["INIT", "SETUP", "TEARDOWN"]
    assert gcu["fraction"] == 0.75
    windows = merged["sync_windows"]
    assert windows["messages_posted"] == 30
    assert windows["messages_per_window"] == 3.0  # re-derived, not summed
    assert merged["residual_backlog"] == {"total": 1,
                                          "per_entity": [1, 0]}


def test_merge_telemetry_end_to_end():
    def payload(shard, tid, posted):
        registry = MetricsRegistry()
        registry.counter("n.posts").inc(posted)
        registry.histogram("lat").record(1e-4 * (tid + 1))
        return {"schema": 1, "shard": shard, "level": "behav",
                "instruments": registry.snapshot(),
                "provenance": {"sample": 1, "cells_seen": 2,
                               "cells_sampled": 2,
                               "spans_recorded": 4},
                "spans": [{"ev": "span", "cell": tid, "hop": "source",
                           "t": 0.1 * tid, "shard": shard}],
                "trace_records": 10,
                "coverage": {"fsm_states": {},
                             "sync_windows": {"messages_posted": posted},
                             "residual_backlog": {"total": 0,
                                                  "per_entity": [0]}}}

    merged = merge_telemetry([payload("edge", 1, 3),
                              payload("core", 2, 4)])
    assert merged["shards"] == ["edge", "core"]
    assert merged["instruments"]["counters"]["n.posts"] == 7
    assert merged["instruments"]["histograms"]["lat"]["count"] == 2
    assert merged["provenance"]["cells_seen"] == 4
    assert merged["provenance"]["sample"] == 1  # max, not sum
    assert len(merged["spans"]) == 2
    assert merged["trace_records"] == 20
    assert merged["coverage"]["sync_windows"]["messages_posted"] == 7


def test_merge_telemetry_skips_falsy_payloads():
    merged = merge_telemetry([None, {}])
    assert merged["shards"] == []
    assert merged["spans"] == []


# ----------------------------------------------------------------------
# Multi-process Chrome export
# ----------------------------------------------------------------------
def _shard_records(shard, tid, base):
    return [
        {"ev": "window", "t_cur": base + 1e-4, "hdl_s": base,
         "shard": shard},
        {"ev": "span", "cell": tid, "hop": "post", "t": base,
         "shard": shard},
        {"ev": "span", "cell": tid, "hop": "ingress",
         "t": base + 2e-4, "hdl_s": base + 1e-4, "shard": shard},
    ]


def test_export_assigns_one_pid_per_shard_with_flows_across():
    """Two shards' records export under distinct pids; the shared
    cell id becomes a flow chain crossing both process groups."""
    records = (
        _shard_records("edge", 4, 0.0)
        + [{"ev": "span", "cell": 4, "hop": "shard_out", "t": 3e-4,
            "shard": "edge"},
           {"ev": "span", "cell": 4, "hop": "shard_in", "t": 4e-4,
            "shard": "core"}]
        + _shard_records("core", 4, 5e-4))
    payload = export_chrome_trace(records)
    validate_chrome_trace(payload)
    pids = {event["pid"] for event in payload["traceEvents"]}
    assert pids == {PID + 1, PID + 2}  # sorted labels: core, edge
    names = {(e["pid"], e["args"]["name"])
             for e in payload["traceEvents"]
             if e.get("name") == "process_name"}
    assert (PID + 1, "shard core") in names
    assert (PID + 2, "shard edge") in names
    owners = flow_processes(payload)
    assert owners[4] == {PID + 1, PID + 2}
    # the flow still spans both time-domain tracks too
    assert len(flow_tracks(payload)[4]) >= 2


def test_export_unlabelled_records_stay_on_the_default_pid():
    records = [{"ev": "span", "cell": 1, "hop": "source", "t": 0.0},
               {"ev": "span", "cell": 1, "hop": "sink", "t": 1e-4}]
    payload = export_chrome_trace(records)
    validate_chrome_trace(payload)
    assert {e["pid"] for e in payload["traceEvents"]} == {PID}
    assert flow_processes(payload)[1] == {PID}


def test_flow_processes_empty_without_flow_events():
    payload = export_chrome_trace([{"ev": "window", "t_cur": 1e-4,
                                    "hdl_s": 0.0}])
    assert flow_processes(payload) == {}
