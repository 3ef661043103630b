"""Differential property of the chain driver: the op log each shard
receives, and the result it reports, do not depend on the run mode or
on the pipelining parameters.

Every batch a coordinator-side handle takes for flushing is recorded
as ``PackedOps.ops()`` tuples.  For generated chains of 2-4
behavioural shards (seed, ``cells``, ``window_slots``, ``max_inflight``,
``max_batch``, pipe or socket transport) the sharded run must match the
in-process run op for op and in its full result dict.  The local run
ignores the pipelining parameters, so matching it under every drawn
setting means matching across the settings too.  A driver that
forwards outputs past an upstream window mark makes the log depend on
when acks arrive, which this property catches.
"""

from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.shard import ShardSpec, TopologySpec, client, run_topology


@contextmanager
def recorded_op_logs():
    """Record, per shard id, every op each handle flushes."""
    logs = {}
    take = client._HandleBase._take_batch

    def recording(handle):
        batch = take(handle)
        logs.setdefault(handle.shard_id, []).extend(batch.packed().ops())
        return batch

    client._HandleBase._take_batch = recording
    try:
        yield logs
    finally:
        client._HandleBase._take_batch = take


def run_recorded(spec, mode):
    with recorded_op_logs() as logs:
        report = run_topology(spec, mode=mode)
    return report, logs


@st.composite
def chains(draw):
    shards = draw(st.integers(2, 4))
    return TopologySpec(
        shards=[ShardSpec(f"s{i}", level="behav") for i in range(shards)],
        cells=draw(st.integers(1, 32)),
        seed=draw(st.integers(0, 2 ** 16)),
        chain=True,
        window_slots=draw(st.integers(2, 64)),
        max_inflight=draw(st.integers(1, 4)),
        max_batch=draw(st.sampled_from([4, 512])),
        transport=draw(st.sampled_from(["pipe", "socket"])))


@settings(max_examples=40, deadline=None)
@given(spec=chains())
def test_op_logs_and_results_do_not_depend_on_mode(spec):
    local, local_logs = run_recorded(spec, "local")
    sharded, sharded_logs = run_recorded(spec, "sharded")
    for ref, got in zip(local["shards"], sharded["shards"]):
        shard = ref["id"]
        assert sharded_logs[shard] == local_logs[shard], shard
        assert got["exchange"]["ops_sent"] == len(local_logs[shard])
        assert got["result"] == ref["result"], shard
    assert sharded["digest"] == local["digest"]
