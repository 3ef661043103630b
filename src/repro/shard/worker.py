"""The shard worker process: replay ops, piggy-back outputs, report.

:func:`shard_worker_main` is the process entry point (pipe mode; the
socket mode wraps it after dialling the coordinator).  It builds one
:class:`~repro.shard.group.ShardGroup` from the shipped config and
then serves frames until ``FRAME_CLOSE`` or transport EOF:

* ``FRAME_OPS (seq, packed)`` → decode-free replay
  (:meth:`~repro.shard.group.ShardGroup.apply_packed` slices cells
  straight out of the received blob), answer ``FRAME_ACK (seq,
  new_outputs)`` — the ack piggy-backs every output cell the replay
  produced, so one exchange per timing window suffices in the common
  case (the SCE-MI transaction-pipe discipline).
* ``FRAME_FINISH t`` → drain/settle, answer ``FRAME_RESULT report``.
* ``FRAME_SNAPSHOT`` → answer ``FRAME_RESULT`` with a live report,
  without finishing.
* ``FRAME_TELEMETRY`` → answer ``FRAME_TELEMETRY`` with the group's
  observability payload (instruments, provenance spans, coverage
  counters) — valid mid-run and after the finish alike.
* any replay exception → ``FRAME_ERROR`` carrying the *full* remote
  traceback (the PR 7 sweep policy applied to shards); the loop keeps
  serving so the coordinator chooses whether to retry or tear down.

Test hooks (config ``inject``): ``{"kind": "error", "at_op": N}``
raises mid-replay once N ops have been applied; ``"kind": "exit"``
hard-kills the process with ``os._exit`` — the crash-mid-window case
the transport edge-case tests exercise.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

from ..obs.trace import TraceWriter
from . import protocol
from .group import ShardGroup
from .transport import (PipeTransport, ShmRingTransport, Transport,
                        TransportClosed, connect_transport)

__all__ = ["shard_worker_main", "shard_worker_socket_main",
           "shard_worker_shm_main", "build_group"]


def build_group(config: Dict[str, Any]) -> ShardGroup:
    """Construct the worker's :class:`ShardGroup` from the shipped
    shard config (``id``/``level``/``num_ports``/``accounting``/
    ``observe``/``trace_file``)."""
    trace: Optional[TraceWriter] = None
    trace_file = config.get("trace_file")
    shard_id = config.get("id", "shard0")
    if trace_file:
        # Stamp the shard id on every record so merged multi-process
        # traces stay attributable per shard.
        trace = TraceWriter(trace_file, defaults={"shard": shard_id})
    return ShardGroup(
        shard_id=shard_id,
        level=config.get("level", "auto"),
        num_ports=int(config.get("num_ports", 4)),
        accounting=bool(config.get("accounting", True)),
        observe=bool(config.get("observe", False)),
        trace=trace)


def _check_injection(config: Dict[str, Any], group: ShardGroup,
                     batch: int) -> None:
    """Honour the test-only failure-injection hook before a replay
    batch (mirrors the sweep scenario's ``_apply_injection``)."""
    inject = config.get("inject")
    if not inject:
        return
    at_op = int(inject.get("at_op", 0))
    if group.ops_applied + batch <= at_op:
        return
    kind = inject.get("kind")
    if kind == "error":
        raise RuntimeError(
            f"injected shard error in {group.shard_id!r} at op "
            f"{at_op}")
    if kind == "exit":
        # Hard process death mid-window — no frame, no traceback; the
        # coordinator sees the transport EOF.
        os._exit(23)


def _warm_replay(config: Dict[str, Any]) -> None:
    """Pre-fault the replay working set before the worker reports
    ready.

    A freshly forked child pays copy-on-write page faults the first
    time it touches the interpreter heap it inherited — measured at
    ~1.5-2x on the first replay, which used to land inside the
    coordinator's timed region.  Replaying a few throwaway ops on a
    scratch group walks the cell-parse/replay/report code paths once,
    so the faults are taken during process startup (setup, like
    spawning itself) instead of during the measured exchange.  The
    scratch group is discarded; the real group starts clean, so
    byte-identity is untouched.
    """
    from .codec import OpBatch
    scratch = ShardGroup(
        "warmup", level=config.get("level", "auto"),
        num_ports=int(config.get("num_ports", 4)),
        accounting=bool(config.get("accounting", True)))
    batch = OpBatch()
    cell = bytes(53)
    for i in range(32):
        batch.add_cell(i * 1e-6, i % scratch.num_ports, cell)
        batch.add_null(i * 1e-6 + 5e-7)
    scratch.apply_packed(batch.packed())
    scratch.new_outputs_packed()
    scratch.result()
    scratch.close()


def _serve(transport: Transport, config: Dict[str, Any]) -> None:
    """The frame loop shared by all worker flavours.

    Builds (and warm-faults) the shard group first, *then* announces
    readiness with ``FRAME_HELLO`` — the coordinator's
    :meth:`~repro.shard.topology.ShardedTopology.start` waits for the
    hello, so group construction and first-touch costs stay out of
    the timed driving region (exactly like the local reference mode,
    whose groups are built before the clock starts).
    """
    _warm_replay(config)
    group = build_group(config)
    transport.send((protocol.FRAME_HELLO, config.get("id", "shard0")))
    try:
        while True:
            try:
                kind, payload = transport.recv()
            except TransportClosed:
                return
            try:
                reply: Optional[Tuple[str, Any]] = None
                if kind == protocol.FRAME_OPS:
                    seq, packed = payload
                    _check_injection(config, group, len(packed))
                    group.apply_packed(packed)
                    reply = (protocol.FRAME_ACK,
                             (seq, group.new_outputs_packed()))
                elif kind == protocol.FRAME_FINISH:
                    group.finish(payload)
                    result = group.result()
                    result["residual_outputs"] = group.new_outputs()
                    reply = (protocol.FRAME_RESULT, result)
                elif kind == protocol.FRAME_SNAPSHOT:
                    reply = (protocol.FRAME_RESULT, group.result())
                elif kind == protocol.FRAME_TELEMETRY:
                    # Observability rides the same wire as the data
                    # (SCE-MI's discipline): ship the registry
                    # snapshot, span stream and coverage counters
                    # through the tag codec — nothing pickled.
                    reply = (protocol.FRAME_TELEMETRY,
                             group.telemetry())
                elif kind == protocol.FRAME_CLOSE:
                    return
                else:
                    raise ValueError(
                        f"unknown frame kind {kind!r} from "
                        "coordinator")
            except SystemExit:
                raise
            except BaseException as exc:  # noqa: BLE001 - ship it whole
                transport.send((protocol.FRAME_ERROR,
                                protocol.error_info(exc)))
                continue
            if reply is not None:
                transport.send(reply)
    finally:
        group.close()
        transport.close()


def shard_worker_main(conn, config: Dict[str, Any]) -> None:
    """Process target for pipe-coupled shards (*conn* is the child end
    of a :func:`multiprocessing.Pipe`)."""
    _serve(PipeTransport(conn), config)


def shard_worker_socket_main(address: Tuple[str, int],
                             config: Dict[str, Any]) -> None:
    """Process target for socket-coupled shards: dial the coordinator
    at *address*, then serve the shared frame loop (whose hello both
    identifies this shard — accept order is not connect order — and
    reports it ready)."""
    _serve(connect_transport(address), config)


def shard_worker_shm_main(descriptor: Dict[str, Any],
                          config: Dict[str, Any]) -> None:
    """Process target for shared-memory-coupled shards (*descriptor*
    comes from :func:`repro.shard.transport.shm_ring_pair`); the
    attach wires the default coordinator-death watchdog."""
    _serve(ShmRingTransport.attach(descriptor), config)
