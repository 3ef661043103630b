"""Topology specs, sharded-vs-local byte-identity, failure surfacing."""

import json

import pytest

from repro.shard import (ShardError, ShardSpec, ShardSpecError,
                         TopologySpec, run_topology)

BEHAV2 = dict(shards=[ShardSpec("shard0", level="behav"),
                      ShardSpec("shard1", level="behav")])


# ----------------------------------------------------------------------
# Spec construction and loading
# ----------------------------------------------------------------------
def test_spec_defaults_are_valid():
    spec = TopologySpec()
    assert [s.id for s in spec.shards] == ["shard0", "shard1"]
    assert spec.transport == "pipe"
    assert spec.as_dict()["topology"]["shards"][0]["level"] == "auto"


@pytest.mark.parametrize("kwargs, message", [
    (dict(shards=[]), "needs >= 1 shard"),
    (dict(shards=[ShardSpec("a"), ShardSpec("a")]), "duplicate"),
    (dict(shards=[ShardSpec("a", num_ports=1)]), ">= 2 ports"),
    (dict(cells=0), ">= 1 cell"),
    (dict(window_slots=0), ">= 1 window slot"),
    (dict(drain_windows=-1), "negative drain_windows"),
    (dict(transport="carrier-pigeon"), "unknown transport"),
    (dict(shards=[ShardSpec("solo")], chain=True), ">= 2 shards"),
    (dict(inject={"ghost": {"kind": "exit"}}), "unknown shard"),
])
def test_spec_validation_rejects(kwargs, message):
    with pytest.raises(ShardSpecError, match=message):
        TopologySpec(**kwargs)


def test_from_mapping_count_shorthand():
    spec = TopologySpec.from_mapping({
        "topology": {"count": 3, "level": "behav", "chain": True},
        "run": {"cells": 12, "seed": 7},
        "execution": {"transport": "socket", "max_batch": 64},
    })
    assert [s.id for s in spec.shards] == ["shard0", "shard1",
                                           "shard2"]
    assert all(s.level == "behav" for s in spec.shards)
    assert (spec.cells, spec.seed) == (12, 7)
    assert spec.chain and spec.transport == "socket"
    assert spec.max_batch == 64


def test_from_mapping_explicit_shards_override_defaults():
    spec = TopologySpec.from_mapping({
        "topology": {"level": "behav",
                     "shards": [{"id": "edge"},
                                {"id": "core", "level": "rtl",
                                 "accounting": False}]},
    })
    assert spec.shards[0] == ShardSpec("edge", level="behav")
    assert spec.shards[1] == ShardSpec("core", level="rtl",
                                       accounting=False)


@pytest.mark.parametrize("data, message", [
    ({"topology": {"count": 2, "shards": []}}, "shards OR count"),
    ({"topology": {"warp": 9}}, "unknown key"),
    ({"run": {"cells": 8, "speed": 1}}, "unknown key"),
    ({"sections": {}}, "unknown spec section"),
    ({"topology": {"shards": [{"id": "a", "bogus": 1}]}},
     "unknown key"),
    ([], "must be a table"),
])
def test_from_mapping_rejects_unknown_structure(data, message):
    with pytest.raises(ShardSpecError, match=message):
        TopologySpec.from_mapping(data)


def test_from_file_json(tmp_path):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps(
        {"topology": {"count": 2, "level": "behav"},
         "run": {"cells": 8}}))
    spec = TopologySpec.from_file(path)
    assert len(spec.shards) == 2 and spec.cells == 8


def test_from_file_rejects_missing_and_unknown_suffix(tmp_path):
    with pytest.raises(ShardSpecError, match="no topology spec"):
        TopologySpec.from_file(tmp_path / "absent.toml")
    bad = tmp_path / "topo.yaml"
    bad.write_text("topology: {}")
    with pytest.raises(ShardSpecError, match="unknown spec format"):
        TopologySpec.from_file(bad)


def test_from_file_toml(tmp_path):
    pytest.importorskip("repro.shard.topology")
    from repro.shard import topology as topo_mod
    if topo_mod._toml is None:
        pytest.skip("no TOML reader on this interpreter")
    path = tmp_path / "topo.toml"
    path.write_text(
        "[topology]\ncount = 2\nlevel = \"behav\"\nchain = true\n"
        "[run]\ncells = 8\n")
    spec = TopologySpec.from_file(path)
    assert spec.chain and spec.shards[1].level == "behav"


# ----------------------------------------------------------------------
# The acceptance property: sharded == local, byte for byte
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", ["pipe", "socket", "shm"])
def test_two_shard_chain_byte_identical_to_local(transport):
    """Seeded two-switch topology: the output cell streams of the
    worker-process run must be byte-identical (per-port SHA-256) to
    the single-process replay of the same op log."""
    spec = TopologySpec(cells=16, seed=3, chain=True,
                        window_slots=32, transport=transport,
                        **BEHAV2)
    local = run_topology(spec, mode="local")
    sharded = run_topology(spec, mode="sharded")
    assert local["digest"] == sharded["digest"]
    for ref, got in zip(local["shards"], sharded["shards"]):
        assert ref["digests"] == got["digests"]
        assert ref["result"]["counters"] == got["result"]["counters"]
        assert ref["result"]["records"] == got["result"]["records"]
    # chained forwarding actually happened: downstream saw more cells
    assert sharded["shards"][1]["result"]["cells_in"] > spec.cells
    assert sharded["totals"]["frames"] > 0


def test_mixed_level_topology_byte_identical():
    """A behav shard feeding an RTL shard (the PR 7 contract applied
    across processes) stays byte-identical to the local reference."""
    spec = TopologySpec(
        shards=[ShardSpec("edge", level="behav"),
                ShardSpec("core", level="rtl")],
        cells=8, seed=1, chain=True, window_slots=32)
    local = run_topology(spec, mode="local")
    sharded = run_topology(spec, mode="sharded")
    assert local["digest"] == sharded["digest"]
    levels = [s["level"] for s in sharded["shards"]]
    assert levels == ["behav", "rtl"]
    # the RTL shard exercised the conservative protocol
    assert sharded["totals"]["sync"]["messages_posted"] > 0
    assert sharded["totals"]["sync"]["windows_granted"] > 0


def test_mixed_level_chain_at_volume_byte_identical():
    """The two-switch example shape at volume: a behav edge feeding an
    RTL core, enough cells that several ingress events share or abut
    the accounting unit's coalesced null horizon.  Regression test for
    a lag-invariant violation: with several synchronisers sharing one
    HDL kernel, a sibling entity's post may run the shared clock to a
    cell's stamp before the accounting sync flushes its stale deferred
    null bound — ``post`` must register the message's timestamp first
    (seen as a CausalityError at cells=32, never at cells=8)."""
    spec = TopologySpec(
        shards=[ShardSpec("edge", level="behav"),
                ShardSpec("core", level="rtl")],
        cells=32, seed=0, chain=True, window_slots=64,
        drain_windows=2)
    local = run_topology(spec, mode="local")
    sharded = run_topology(spec, mode="sharded")
    assert local["digest"] == sharded["digest"]
    for ref, got in zip(local["shards"], sharded["shards"]):
        assert ref["digests"] == got["digests"]
        assert ref["result"]["records"] == got["result"]["records"]
    # the RTL core coalesced nulls while chained traffic flowed in
    assert sharded["totals"]["sync"]["null_messages_coalesced"] > 0
    assert sharded["shards"][1]["result"]["cells_in"] > spec.cells


def test_three_shard_chain_results_identical_to_local():
    """A third hop forwards the same cells in both modes.  The shard
    after the middle one used to receive the middle shard's replies to
    freshly forwarded cells whenever their acks happened to be in
    (always locally, by timing when sharded): the digest matched, but
    the unknown third-hop cells still occupied its ingress, so its
    ``clocks`` read 7,795 locally and 10,388 sharded."""
    spec = TopologySpec(
        shards=[ShardSpec(f"s{i}", level="behav") for i in range(3)],
        cells=32, seed=3, chain=True, window_slots=64, max_inflight=1,
        max_batch=4)
    local = run_topology(spec, mode="local")
    sharded = run_topology(spec, mode="sharded")
    for ref, got in zip(local["shards"], sharded["shards"]):
        assert ref["result"] == got["result"], ref["id"]
        assert ref["exchange"]["ops_sent"] == got["exchange"]["ops_sent"]
    assert local["digest"] == sharded["digest"]


def test_determinism_same_seed_same_digest():
    spec = TopologySpec(cells=12, seed=5, chain=True, **BEHAV2)
    first = run_topology(spec, mode="local")
    again = run_topology(spec, mode="local")
    assert first["digest"] == again["digest"]
    different = run_topology(
        TopologySpec(cells=12, seed=6, chain=True, **BEHAV2),
        mode="local")
    assert different["digest"] != first["digest"]


def test_unknown_mode_rejected():
    with pytest.raises(ShardSpecError, match="unknown mode"):
        run_topology(TopologySpec(**BEHAV2), mode="quantum")


# ----------------------------------------------------------------------
# Failure surfacing: crash mid-window, remote tracebacks
# ----------------------------------------------------------------------
def test_shard_crash_mid_window_reports_exitcode():
    """A worker hard-dying inside an exchange must surface as a
    ShardError naming the shard and its exit code, not a hang."""
    spec = TopologySpec(cells=16, seed=0, window_slots=32,
                        inject={"shard1": {"kind": "exit",
                                           "at_op": 5}},
                        **BEHAV2)
    with pytest.raises(ShardError) as excinfo:
        run_topology(spec, mode="sharded")
    message = str(excinfo.value)
    assert excinfo.value.shard == "shard1"
    assert "died mid-exchange" in message
    assert "exitcode=23" in message


def test_injected_error_carries_full_remote_traceback():
    spec = TopologySpec(cells=16, seed=0, window_slots=32,
                        inject={"shard0": {"kind": "error",
                                           "at_op": 5}},
                        **BEHAV2)
    with pytest.raises(ShardError) as excinfo:
        run_topology(spec, mode="sharded")
    message = str(excinfo.value)
    assert excinfo.value.shard == "shard0"
    assert "RuntimeError" in message
    assert "injected shard error" in message
    assert "--- remote traceback ---" in message
    assert "Traceback (most recent call last)" in message


def test_trace_dir_stamps_shard_id(tmp_path):
    spec = TopologySpec(cells=8, seed=0, window_slots=32,
                        trace_dir=str(tmp_path / "traces"),
                        **BEHAV2)
    run_topology(spec, mode="sharded")
    for shard_id in ("shard0", "shard1"):
        path = tmp_path / "traces" / f"{shard_id}.trace.jsonl"
        assert path.is_file(), f"missing trace for {shard_id}"
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert records, "trace is empty"
        assert all(r.get("shard") == shard_id for r in records)


@pytest.mark.parametrize("transport", ["pipe", "socket", "shm"])
def test_pre_hello_death_raises_and_reaps(transport, monkeypatch):
    """A worker that dies while building its group (before its hello)
    must surface as a ShardError and take the rest of the fleet with
    it: no shard process outlives the failed start."""
    import multiprocessing

    from repro.shard import worker
    from repro.sweep.runner import start_context

    if start_context().get_start_method() != "fork":
        pytest.skip("the build_group patch reaches workers only by fork")
    real_build_group = worker.build_group

    def failing_build_group(config):
        if config["id"] == "shard1":
            raise RuntimeError("shard1 cannot build its group")
        return real_build_group(config)

    monkeypatch.setattr(worker, "build_group", failing_build_group)
    with pytest.raises(ShardError):
        run_topology(TopologySpec(cells=8, transport=transport, **BEHAV2),
                     mode="sharded")
    leftover = [p.name for p in multiprocessing.active_children()
                if p.name.startswith("shard-")]
    assert leftover == []
