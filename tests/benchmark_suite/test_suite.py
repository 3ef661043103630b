"""Smoke tests of the repo benchmark (``benchmarks/suite``) at tiny
sizes: the declaration parses, runs are deterministic, the traced pass
partitions its root span, and a corrupted output cell is caught."""

import json
import re
import time
from pathlib import Path

import pytest

from benchmarks.suite import child, compare, run
from benchmarks.suite.tracer import TraceError, Tracer
from benchmarks.suite.workloads import build

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: sizes that run in a fraction of a second each
TINY = {
    "cosim-rtl-cbr": 64,
    "cosim-rtl-bursty": 64,
    "cosim-rtl-observed": 64,
    "pure-rtl-bench": 8,
    "cosim-behav-mixed": 320,
    "shard-chain-behav": 300,
}


def test_benchmark_json_matches_the_suite():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert workloads == list(run.SIZES) == list(TINY)
    metrics = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in workloads + metrics:
        assert NAME.fullmatch(name), name
    assert len(set(workloads)) == len(workloads)
    assert len(set(metrics)) == len(metrics)
    assert "setup_s" in metrics
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert set(run.PINNED) <= set(workloads)


@pytest.mark.parametrize("name", list(TINY))
def test_one_seed_repeats_exactly(name):
    outcomes = []
    for _ in range(2):
        workload = build(name, 1, TINY[name])
        workload.run()
        outcomes.append(workload.outcome())
    first, second = outcomes
    assert first.failed == 0 and first.cells > 0 and first.clocks > 0
    assert first.digest == second.digest
    assert first.counts == second.counts
    assert build(name, 2, TINY[name]) is not None


@pytest.mark.parametrize("name", list(TINY))
def test_traced_pass_partitions_its_root_span(name, tmp_path,
                                              monkeypatch):
    monkeypatch.setattr(child, "OUT_DIR", tmp_path)
    result = child.traced_pass(name, 0, TINY[name])
    metrics = result["per_layer"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["trace.coverage"] >= 0.95
    assert result["runs"][0]["failed"] == 0
    events = json.loads(
        (tmp_path / f"{name}.trace.json").read_text())["traceEvents"]
    assert len(events) == result["spans"] > 0


def test_tracer_fails_loudly():
    workload = build("cosim-rtl-cbr", 0, 8)
    tracer = Tracer()
    with pytest.raises(TraceError):
        tracer.wrap(workload.entity, ["no_such_entry_point"], "core.cosim")
    # an entry point that is wrapped but never called
    tracer.wrap(workload.entity.mapper, ["octets_to_cell"], "core.mapping")
    workload.run()
    tracer.unwrap()
    with pytest.raises(TraceError):
        tracer.require_calls()
    assert "octets_to_cell" not in vars(workload.entity.mapper)


def test_corrupted_output_cell_fails_the_run(monkeypatch, capsys):
    workload = build("cosim-rtl-bursty", 0, TINY["cosim-rtl-bursty"])
    start, end = workload.run()
    when, cell = workload.entity.output_cells[3]
    workload.entity.output_cells[3] = (
        when, type(cell).with_payload(cell.vpi, cell.vci, [0xEE]))
    outcome = workload.outcome()
    assert outcome.failed == 1

    def corrupt_child(*_args):
        return {"setup_s": 0.5, "peak_rss_mb": 20.0,
                "digest": outcome.digest, "counts": outcome.counts,
                "runs": [{"wall_s": end - start, "cells": outcome.cells,
                          "clocks": outcome.clocks,
                          "failed": outcome.failed}]}

    monkeypatch.setattr(run, "spawn_child", corrupt_child)
    # seed 2 has no pinned digest for the tiny run to miss
    code = run.main(["--workload", "cosim-rtl-bursty", "--seed", "2",
                     "--trace", "0"])
    assert code != 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] == run.CHILDREN
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    # seed 0 is pinned: a digest that differs fails every cell
    assert run.main(["--workload", "cosim-rtl-bursty", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["failed"] == last["attempted"] > 0


def test_child_process_and_compare(tmp_path, monkeypatch):
    result = run.spawn_child("cosim-behav-mixed", 0, 400,
                             "--repeats", "2")
    assert len(result["runs"]) == 2
    assert 0 < result["setup_s"] < 60
    assert result["setup_s"] < time.monotonic()

    monkeypatch.setattr(run, "spawn_child", lambda *_args: result)
    for label in ("a", "b"):
        assert run.main(["--workload", "cosim-behav-mixed", "--seed", "2",
                         "--trace", "0", "--out",
                         str(tmp_path / label)]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    slower = json.loads((tmp_path / "b").read_text())
    figures = slower["workloads"]["cosim-behav-mixed"]["end_to_end"]
    figures["cycles_per_s"]["median"] *= 0.5
    (tmp_path / "b").write_text(json.dumps(slower))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
