"""Tests for the command-line interface."""

import json
from pathlib import Path

from repro.cli import main


def test_inventory_lists_all_subpackages(capsys):
    assert main(["inventory"]) == 0
    out = capsys.readouterr().out
    for name in ("netsim", "traffic", "atm", "hdl", "rtl", "board",
                 "core", "sweep", "shard", "analysis"):
        assert f"repro.{name}" in out


def test_examples_listing(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "quickstart" in out
    assert "accounting_coverification" in out


def test_unknown_example_rejected(capsys):
    assert main(["example", "does_not_exist"]) == 2
    assert "unknown example" in capsys.readouterr().err


def test_run_example_quickstart(capsys):
    assert main(["example", "quickstart"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_stats_reports_cosim_metrics(capsys, tmp_path):
    json_path = tmp_path / "stats.json"
    trace_path = tmp_path / "trace.jsonl"
    assert main(["stats", "--cells", "16",
                 "--json", str(json_path),
                 "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    for needle in ("windows granted", "null messages", "stale advances",
                   "sync.lag_s", "cell_ingress_latency", "delta cycles"):
        assert needle in out
    report = json.loads(json_path.read_text())
    assert report["workload"]["scenario"] == "e1_accounting"
    assert report["entities"][0]["sync"]["messages_posted"] > 0
    assert trace_path.read_text().count('"ev"') == \
        report["trace_records"]


def test_stats_prints_hop_table_and_profile(capsys):
    assert main(["stats", "--cells", "16", "--json", "",
                 "--profile"]) == 0
    out = capsys.readouterr().out
    assert "cell journey (per-hop latency):" in out
    assert "source -> sync post" in out
    assert "sync -> DUT ingress" in out
    assert "cells traced: 16/16 (1 in 1)" in out
    assert "hot-path profile:" in out
    assert "prof.sync_advance_s" in out


def test_stats_sampling_reduces_traced_cells(capsys):
    assert main(["stats", "--cells", "16", "--json", "",
                 "--sample", "4"]) == 0
    assert "cells traced: 4/16 (1 in 4)" in capsys.readouterr().out


def test_trace_run_and_export(capsys, tmp_path):
    from repro.obs import flow_tracks, validate_chrome_trace
    from repro.obs.chrome import HDL_TID, NETSIM_TID

    jsonl = tmp_path / "e1.trace.jsonl"
    chrome = tmp_path / "e1.trace.json"
    assert main(["trace", "run", "--cells", "16",
                 "--out", str(jsonl), "--chrome", str(chrome)]) == 0
    out = capsys.readouterr().out
    assert "trace record(s)" in out
    assert "cells traced: 16/16" in out
    assert "16 cell flows" in out

    # acceptance: the exported trace is schema-valid and every sampled
    # cell's flow connects the netsim and HDL time-domain tracks
    payload = json.loads(chrome.read_text())
    summary = validate_chrome_trace(payload)
    assert summary["flows"] == 16
    for tracks in flow_tracks(payload).values():
        assert {NETSIM_TID, HDL_TID} <= tracks

    # standalone export of the same JSONL agrees
    out2 = tmp_path / "again.trace.json"
    assert main(["trace", "export", str(jsonl),
                 "--out", str(out2)]) == 0
    assert "16 cell flows" in capsys.readouterr().out
    assert validate_chrome_trace(json.loads(out2.read_text())) == \
        summary


def test_trace_export_default_output_path(capsys, tmp_path):
    jsonl = tmp_path / "run.trace.jsonl"
    assert main(["trace", "run", "--cells", "8", "--sample", "2",
                 "--out", str(jsonl)]) == 0
    assert "cells traced: 4/8 (1 in 2)" in capsys.readouterr().out
    assert main(["trace", "export", str(jsonl)]) == 0
    capsys.readouterr()
    assert (tmp_path / "run.trace.json").is_file()


def test_trace_export_rejects_missing_and_invalid(capsys, tmp_path):
    assert main(["trace", "export",
                 str(tmp_path / "absent.jsonl")]) == 2
    assert "no such trace file" in capsys.readouterr().err
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json}\n")
    assert main(["trace", "export", str(bad)]) == 1
    assert "invalid trace" in capsys.readouterr().err


def test_sweep_trace_dir_flag(capsys, tmp_path):
    trace_dir = tmp_path / "traces"
    assert main(["sweep", "--traffic", "cbr", "--ports", "2",
                 "--seeds", "0", "--cells", "8", "--jobs", "1",
                 "--json", "", "--trace-dir", str(trace_dir)]) == 0
    capsys.readouterr()
    assert (trace_dir / "cbr-p2-s0-conservative.trace.jsonl").is_file()


def test_stats_lockstep_disables_json(capsys):
    assert main(["stats", "--cells", "8", "--lockstep",
                 "--json", ""]) == 0
    out = capsys.readouterr().out
    assert "lockstep sync" in out
    assert "wrote" not in out


def test_no_json_written_without_the_flag(capsys, tmp_path,
                                          monkeypatch):
    from repro.cli import _repo_root

    def json_files():
        return {path: path.stat().st_mtime_ns
                for root in (tmp_path, _repo_root())
                for path in root.glob("*.json")}

    monkeypatch.chdir(tmp_path)
    before = json_files()
    assert main(["stats", "--cells", "16"]) == 0
    assert main(["equiv", "--cells", "8"]) == 0
    assert main(["sweep", "--ports", "2", "--seeds", "0",
                 "--cells", "8", "--jobs", "1"]) == 0
    assert "wrote" not in capsys.readouterr().out
    assert json_files() == before


def test_results_prints_tables_when_present(capsys):
    from repro.cli import _results_dir
    code = main(["results"])
    out = capsys.readouterr().out
    if _results_dir().is_dir() and any(_results_dir().glob("*.txt")):
        assert code == 0
        assert "E1" in out or "E2" in out or "E" in out
    else:
        assert code == 1


def test_sweep_from_flags(capsys, tmp_path):
    json_path = tmp_path / "sweep.json"
    assert main(["sweep", "--traffic", "cbr", "--ports", "2",
                 "--seeds", "0,1", "--cells", "8", "--jobs", "2",
                 "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "scenario sweep" in out
    assert "aggregate: 2/2 runs passed" in out
    payload = json.loads(json_path.read_text())
    assert payload["benchmark"] == "sweep"
    assert len(payload["runs"]) == 2
    assert payload["aggregate"]["runs_passed"] == 2
    assert payload["execution"]["jobs"] == 2


def test_sweep_from_spec_file(capsys, tmp_path):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "matrix": {"traffic": ["cbr"], "ports": [2], "seeds": [0],
                   "sync": ["conservative"]},
        "run": {"cells": 8},
        "execution": {"jobs": 1},
    }))
    assert main(["sweep", "--spec", str(spec_path),
                 "--json", ""]) == 0
    assert "1/1 runs passed" in capsys.readouterr().out


def test_sweep_rejects_bad_matrix(capsys):
    assert main(["sweep", "--traffic", "warp", "--json", ""]) == 2
    assert "invalid sweep" in capsys.readouterr().err


def test_shard_both_modes_digests_match(capsys):
    assert main(["shard", "--shards", "2", "--levels", "behav",
                 "--cells", "12", "--chain", "--mode", "both"]) == 0
    out = capsys.readouterr().out
    assert "mode local" in out and "mode sharded" in out
    assert "byte-identical across modes" in out


def test_shard_both_modes_diffs_modelled_results(capsys):
    """A three-shard chain matches in every shard's modelled results
    and op count, not only in the output digest."""
    assert main(["shard", "--shards", "3", "--levels", "behav",
                 "--cells", "16", "--chain", "--mode", "both"]) == 0
    out = capsys.readouterr().out
    assert "modelled results and op counts identical" in out


def test_shard_both_modes_names_first_result_divergence(capsys,
                                                        monkeypatch):
    import repro.shard
    real = repro.shard.run_topology

    def skewed(spec, mode="sharded"):
        report = real(spec, mode=mode)
        if mode == "sharded":
            report["shards"][1]["result"]["clocks"] += 1
        return report

    monkeypatch.setattr(repro.shard, "run_topology", skewed)
    assert main(["shard", "--shards", "2", "--levels", "behav",
                 "--cells", "8", "--chain", "--mode", "both"]) == 1
    captured = capsys.readouterr()
    assert "byte-identical across modes" in captured.out
    assert "shard1: result['clocks'] differs" in captured.err


def test_shard_from_spec_file_writes_report(capsys, tmp_path):
    spec_path = tmp_path / "topo.json"
    spec_path.write_text(json.dumps(
        {"topology": {"count": 2, "level": "behav", "chain": True},
         "run": {"cells": 8}}))
    report_path = tmp_path / "shard.json"
    assert main(["shard", "--spec", str(spec_path),
                 "--mode", "local", "--json", str(report_path)]) == 0
    assert "2 shard(s)" in capsys.readouterr().out
    payload = json.loads(report_path.read_text())
    assert payload["benchmark"] == "shard_topology"
    assert payload["mode"] == "local"
    assert len(payload["shards"]) == 2


def test_shard_rejects_bad_topology(capsys):
    assert main(["shard", "--shards", "2",
                 "--levels", "behav,rtl,auto"]) == 2
    assert "invalid topology" in capsys.readouterr().err
    assert main(["shard", "--shards", "0"]) == 2

