"""Sharded multi-switch co-simulation.

This package scales the paper's one-netsim/one-HDL-kernel coupling to
*N DUT shards in N processes*, coupled by the existing conservative
protocol carried over pipes, sockets or shared memory.

Layers (bottom up):

* :mod:`~repro.shard.codec` — the binary zero-copy frame codec
  (struct-packed headers, columnar :class:`OpBatch`/:class:`PackedOps`
  op payloads, a safe tag codec for control values; nothing on the
  wire is ever pickled — foreign bytes raise :class:`CodecError`).
* :mod:`~repro.shard.transport` — frame transports
  (:class:`PipeTransport`, :class:`SocketTransport`, the same-host
  shared-memory :class:`ShmRingTransport` built via
  :func:`shm_ring_pair`) with precise EOF reporting
  (:class:`TransportClosed`) and frame/octet counters.
* :mod:`~repro.shard.protocol` — the op-log replay wire protocol:
  cells/nulls/ticks as compact ops, batched into frames, with full
  remote tracebacks on failure (:class:`ShardError`).
* :mod:`~repro.shard.group` — :class:`ShardGroup`, one shard's
  switch + accounting DUTs behind the single replay path both the
  worker process and the local reference mode share (the
  byte-identity guarantee lives here).
* :mod:`~repro.shard.worker` — the worker-process frame loop.
* :mod:`~repro.shard.client` — :class:`ShardHandle` (pipelined
  remote driving) and :class:`LocalShardHandle` (in-process
  reference).
* :mod:`~repro.shard.topology` — :class:`TopologySpec` (TOML/JSON),
  :class:`ShardedTopology` (the process fleet) and
  :func:`run_topology` (the mode-agnostic windowed driver).

See ``docs/api/shard.md`` for the reference page and
``docs/architecture.md`` ("Sharded topologies")
for the design walk-through.
"""

from .client import LocalShardHandle, ShardHandle
from .codec import (CodecError, OpBatch, OutputBatch, PackedOps,
                    PackedOutputs, decode_frame, encode_frame)
from .group import ShardGroup
from .protocol import ShardError
from .topology import (MODES, ShardedTopology, ShardSpec,
                       ShardSpecError, TopologySpec, TRANSPORTS,
                       run_topology)
from .transport import (PipeTransport, ShmRingTransport,
                        SocketTransport, Transport, TransportClosed,
                        TransportError, shm_ring_pair)
from .worker import (shard_worker_main, shard_worker_shm_main,
                     shard_worker_socket_main)

__all__ = [
    "ShardHandle", "LocalShardHandle",
    "ShardGroup", "ShardError",
    "CodecError", "OpBatch", "PackedOps",
    "OutputBatch", "PackedOutputs",
    "encode_frame", "decode_frame",
    "ShardSpec", "TopologySpec", "ShardSpecError", "ShardedTopology",
    "run_topology", "TRANSPORTS", "MODES",
    "Transport", "PipeTransport", "SocketTransport",
    "ShmRingTransport", "shm_ring_pair",
    "TransportError", "TransportClosed",
    "shard_worker_main", "shard_worker_socket_main",
    "shard_worker_shm_main",
]
