"""The sharded workload: two chained behavioural shards in worker
processes, driven by ``run_topology`` with the ``TopologySpec``
defaults users get (``pipe``, ``window_slots=64``, ``max_batch=512``,
``max_inflight=4``)."""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.shard import (LocalShardHandle, PipeTransport, ShardedTopology,
                         ShardHandle, ShardSpec, ShmRingTransport,
                         SocketTransport, TopologySpec, codec)
from repro.shard import topology as shard_topology

from .tracer import Tracer
from .workloads import Outcome, Workload, digest_of

__all__ = ["ShardWorkload"]

TRANSPORTS = {"pipe": PipeTransport, "socket": SocketTransport,
              "shm": ShmRingTransport}


class ShardWorkload(Workload):
    """One ``run_topology`` call.  *mode* ``"local"`` is the
    single-process reference the sharded digest must equal.

    ``run_topology`` generates its stimulus and spawns its workers
    before it drives them, so the timed region starts when
    ``ShardedTopology.start`` returns (in local mode, which has no
    fleet, when ``run_topology`` is entered).
    """

    def __init__(self, seed: int, size: int, mode: str = "sharded",
                 transport: str = "pipe") -> None:
        self.seed = seed
        self.size = size
        self.mode = mode
        self.spec = TopologySpec(
            shards=[ShardSpec("shard0", level="behav"),
                    ShardSpec("shard1", level="behav")],
            cells=size, seed=seed, chain=True, transport=transport)
        self.report: Dict[str, object] = {}

    def attach(self, tracer: Tracer) -> None:
        """Class- and module-level wrapping: ``run_topology`` builds
        its own handles and transports.  Workers forked afterwards
        inherit the wrappers; the spans they record die with them."""
        tracer.wrap(shard_topology, ["run_topology"], "shard.topology")
        if self.mode == "local":
            tracer.wrap(LocalShardHandle, ["flush", "finish"],
                        "shard.group")
            return
        tracer.wrap(ShardedTopology, ["start"], "shard.topology")
        tracer.wrap(ShardHandle,
                    ["queue_cell", "queue_null", "queue_tick", "flush",
                     "barrier", "finish", "drain_outputs"],
                    "shard.client")
        tracer.wrap(codec, ["encode_frame"], "shard.codec.encode")
        tracer.wrap(codec, ["decode_frame"], "shard.codec.decode")
        transport = TRANSPORTS[self.spec.transport]
        tracer.wrap(transport, ["send"], "shard.transport.send")
        tracer.wrap(transport, ["recv"], "shard.transport.recv")

    def run(self) -> Tuple[float, float]:
        """Run the topology; see the class docstring for where the
        timed region starts."""
        started: List[float] = []
        original = ShardedTopology.start

        def start(fleet):
            handles = original(fleet)
            started.append(time.monotonic())
            return handles

        ShardedTopology.start = start
        try:
            entered = time.monotonic()
            # looked up on the module so that a tracer's wrapper runs
            self.report = shard_topology.run_topology(self.spec,
                                                      mode=self.mode)
            end = time.monotonic()
        finally:
            ShardedTopology.start = original
        return (started[0] if started else entered), end

    def outcome(self) -> Outcome:
        """Totals from the report; equality with the local-mode
        digest is :meth:`reference_failures`."""
        totals = self.report["totals"]
        exchange = [shard["exchange"] for shard in self.report["shards"]]
        cells = totals["cells_in"]
        wire = sum(e["bytes_sent"] + e["bytes_received"] for e in exchange)
        return Outcome(
            cells=cells, failed=0, clocks=totals["clocks"],
            digest=digest_of([self.report["digest"], totals["clocks"],
                              cells, totals["output_cells"],
                              totals["records"]]),
            counts={
                "shard.client.ops_sent":
                    sum(e["ops_sent"] for e in exchange),
                "shard.codec.frames": totals["frames"],
                "shard.codec.wire_bytes_per_cell": wire / max(1, cells),
            })

    def reference_failures(self) -> int:
        """Every cell fails unless a ``mode="local"`` run of the same
        spec produces the same output digest."""
        local = ShardWorkload(self.seed, self.size, mode="local")
        local.run()
        if local.report["digest"] == self.report["digest"]:
            return 0
        return self.report["totals"]["cells_in"]

    def extra_layer_metrics(self) -> Dict[str, float]:
        """A traced local-mode run for ``shard.group``, and one run
        per transport.  The transport runs are untraced: the tracer's
        cost per queued cell would mute their differences."""
        metrics: Dict[str, float] = {}
        local = ShardWorkload(self.seed, self.size, mode="local")
        tracer = Tracer()
        local.attach(tracer)
        try:
            local.run()
        finally:
            tracer.unwrap()
        tracer.require_calls()
        metrics["shard.group.self_s"] = tracer.self_seconds()["shard.group"]
        # both modes' own driving timers, the same region in each
        metrics["shard.local_vs_sharded"] = (
            self.report["wall_s"] / local.report["wall_s"])
        for transport in TRANSPORTS:
            run = ShardWorkload(self.seed, self.size, transport=transport)
            start, end = run.run()
            metrics[f"shard.transport.{transport}.cells_per_s"] = (
                run.report["totals"]["cells_in"] / (end - start))
        return metrics
