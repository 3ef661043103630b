"""Tests for the Chrome/Perfetto trace exporter (repro.obs.chrome)."""

import json

import pytest

from repro.obs import (ChromeTraceError, export_chrome_trace,
                       load_trace_jsonl, validate_chrome_trace)
from repro.obs.chrome import HDL_TID, NETSIM_TID, NULL_TID, SYNC_TID
from repro.reference import flow_tracks

#: one complete two-hop journey plus sync/null records
JOURNEY = [
    {"ev": "span", "cell": 0, "hop": "source", "t": 0.0, "src": "src0"},
    {"ev": "post", "t": 0.0, "hdl_s": 0.0, "type": "cell", "cell": 0},
    {"ev": "span", "cell": 0, "hop": "post", "t": 0.0, "hdl_s": 0.0},
    {"ev": "window", "t_cur": 2e-6, "hdl_s": 0.0},
    {"ev": "null", "t": 1e-6, "stale": False, "coalesced": False},
    {"ev": "release", "t": 0.0, "hdl_s": 1e-6, "type": "cell",
     "cell": 0},
    {"ev": "span", "cell": 0, "hop": "release", "t": 0.0,
     "hdl_s": 1e-6},
    {"ev": "span", "cell": 0, "hop": "sink", "t": 4e-6, "dst": "sink0"},
    {"ev": "span", "cell": 0, "hop": "ingress", "hdl_s": 5e-6},
    {"ev": "drain", "t": 6e-6},
    {"ev": "finish", "hdl_s": 6e-6, "residual": 0},
]


def test_export_validates_and_summarises(tmp_path):
    out = tmp_path / "chrome.trace.json"
    payload = export_chrome_trace(JOURNEY, path=out)
    summary = validate_chrome_trace(payload)
    assert summary["flows"] == 1
    assert summary["phases"]["B"] == summary["phases"]["E"] == 1
    assert summary["phases"]["X"] == 5  # one slice per span
    assert (1, SYNC_TID) in summary["tracks"]
    # the file round-trips
    reloaded = json.loads(out.read_text())
    assert validate_chrome_trace(reloaded) == summary


def test_flow_connects_both_time_domains():
    payload = export_chrome_trace(JOURNEY)
    tracks = flow_tracks(payload)
    assert tracks[0] == {NETSIM_TID, HDL_TID}


def test_single_hop_journey_emits_no_flow():
    payload = export_chrome_trace(
        [{"ev": "span", "cell": 7, "hop": "source", "t": 0.0}])
    assert validate_chrome_trace(payload)["flows"] == 0
    assert flow_tracks(payload) == {}


def test_null_variants_are_named():
    payload = export_chrome_trace([
        {"ev": "null", "t": 0.0, "stale": False, "coalesced": False},
        {"ev": "null", "t": 1e-6, "stale": True, "coalesced": False},
        {"ev": "null", "t": 2e-6, "stale": False, "coalesced": True},
    ])
    names = [e["name"] for e in payload["traceEvents"]
             if e["tid"] == NULL_TID and e["ph"] == "i"]
    assert names == ["null", "null (stale)", "null (coalesced)"]


def test_tick_pulse_scaled_by_time_unit():
    payload = export_chrome_trace(
        [{"ev": "tick_pulse", "hdl_tick": 530}], time_unit=1e-9)
    event = [e for e in payload["traceEvents"]
             if e.get("name") == "tick_pulse"][0]
    assert event["ts"] == pytest.approx(0.53)  # 530 ns in µs


def test_monotone_clamping_absorbs_backward_stamps():
    payload = export_chrome_trace([
        {"ev": "span", "cell": 0, "hop": "source", "t": 5e-6},
        {"ev": "span", "cell": 0, "hop": "post", "t": 4e-6},  # earlier
    ])
    validate_chrome_trace(payload)  # would raise on a backwards step


def test_unknown_kinds_are_skipped():
    payload = export_chrome_trace([{"ev": "mystery", "t": 0.0},
                                   {"ev": "drain", "t": 0.0}])
    names = [e["name"] for e in payload["traceEvents"]
             if e["ph"] != "M"]
    assert names == ["drain"]


def test_snapshot_folds_into_other_data():
    payload = export_chrome_trace(
        JOURNEY, snapshot={"workload": {"cells": 4},
                           "provenance": {"cells_seen": 4},
                           "entities": ["dropped"]})
    other = payload["otherData"]
    assert other["workload"] == {"cells": 4}
    assert other["provenance"] == {"cells_seen": 4}
    assert "entities" not in other
    assert other["record_count"] == len(JOURNEY)


def test_validator_rejects_malformed_payloads():
    with pytest.raises(ChromeTraceError):
        validate_chrome_trace({"traceEvents": []})
    with pytest.raises(ChromeTraceError):
        validate_chrome_trace({"traceEvents": [{"ph": "i", "pid": 1}]})
    with pytest.raises(ChromeTraceError):
        validate_chrome_trace({"traceEvents": [
            {"ph": "i", "name": "a", "pid": 1, "tid": 1, "ts": 2.0},
            {"ph": "i", "name": "b", "pid": 1, "tid": 1, "ts": 1.0},
        ]})
    with pytest.raises(ChromeTraceError):  # E without B
        validate_chrome_trace({"traceEvents": [
            {"ph": "E", "name": "w", "pid": 1, "tid": 3, "ts": 0.0}]})
    with pytest.raises(ChromeTraceError):  # unclosed B
        validate_chrome_trace({"traceEvents": [
            {"ph": "B", "name": "w", "pid": 1, "tid": 3, "ts": 0.0}]})
    with pytest.raises(ChromeTraceError):  # flow without terminator
        validate_chrome_trace({"traceEvents": [
            {"ph": "s", "name": "c", "pid": 1, "tid": 1, "ts": 0.0,
             "id": 1}]})


def test_load_trace_jsonl_round_trip(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"ev": "drain", "t": 0.0}\n\n'
                    '{"ev": "finish", "hdl_s": 1e-06}\n')
    records = load_trace_jsonl(path)
    assert [r["ev"] for r in records] == ["drain", "finish"]
    path.write_text("not json\n")
    with pytest.raises(ChromeTraceError):
        load_trace_jsonl(path)
