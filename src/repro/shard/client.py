"""Coordinator-side handles for driving one shard.

Two handle flavours share one public surface (queue ops → flush →
finish → result), so topology drivers are written once:

* :class:`ShardHandle` — the real thing: ships columnar op batches
  (:class:`~repro.shard.codec.OpBatch`) over a
  :class:`~repro.shard.transport.Transport` to a worker process,
  pipelining up to ``max_inflight`` unacknowledged frames so shard
  compute overlaps coordinator-side op generation (the distributed
  analogue of PR 4's ``post_many`` batching).
* :class:`LocalShardHandle` — the reference: applies the *identical*
  packed batches to an in-process
  :class:`~repro.shard.group.ShardGroup`.  Because both flavours
  funnel ops through the same ``ShardGroup.apply_packed`` replay
  path, a sharded run is byte-identical to its local twin by
  construction — the equivalence tests assert exactly this.

Ops are queued straight into the batch's columns (one f64 time
column, one i32 port column, one op-code byte string, one contiguous
cell blob) — no per-op tuple exists between the stimulus generator
and the wire.

:class:`ShardPortEndpoint` adapts one (handle, port) pair to the
:class:`~repro.core.contract.DutContract` surface, so a remote shard
port can stand wherever a :class:`CosimulationEntity` or behavioural
entity does — taps, comparators and drivers stay level- *and*
process-agnostic (mixed-level sharded topologies fall out of this).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..atm.cell import AtmCell
from ..core.contract import DutContract
from . import protocol
from .codec import CELL_OCTETS, OpBatch, _UINT8
from .group import ShardGroup
from .transport import Transport, TransportClosed

__all__ = ["ShardHandle", "LocalShardHandle", "ShardPortEndpoint"]

#: default op-batch size per FRAME_OPS frame
DEFAULT_MAX_BATCH = 512
#: default number of unacknowledged frames kept in flight
DEFAULT_MAX_INFLIGHT = 4


class _HandleBase:
    """Shared queueing/bookkeeping of both handle flavours."""

    def __init__(self, shard_id: str, num_ports: int = 4) -> None:
        self.shard_id = shard_id
        self.num_ports = num_ports
        #: queued, not yet flushed ops (columnar)
        self._batch = OpBatch()
        #: collected output cells per port, columnar: one f64 time
        #: column, one u64 trace-id column (zeros when unobserved)
        #: plus one contiguous 53-octet-multiple blob each
        self._out_times: List[array] = [array("d")
                                        for _ in range(num_ports)]
        self._out_tids: List[array] = [array(_UINT8)
                                       for _ in range(num_ports)]
        self._out_blobs: List[bytearray] = [bytearray()
                                            for _ in range(num_ports)]
        #: per-window output marks: the per-port output counts once
        #: every op flushed up to that window's close is replayed
        self._marks: List[List[int]] = []
        self.result: Optional[Dict[str, Any]] = None
        self.ops_sent = 0
        self._last_null = float("-inf")
        self._closed = False

    # -- op queueing ---------------------------------------------------
    def queue_cell(self, time: float, port: int, cell,
                   tid: int = 0) -> None:
        """Queue one ingress cell for switch *port* at netsim *time*
        (an :class:`AtmCell` or ready-made 53 octets — ``bytes``,
        ``bytearray`` or a ``memoryview`` slice).  A non-zero *tid*
        stamps the cell with a provenance trace id that survives the
        shard boundary (observed topologies thread one id per cell so
        chained shards produce one connected journey)."""
        if not isinstance(cell, (bytes, bytearray, memoryview)):
            cell = bytes(cell.to_octets())
        self._batch.add_cell(time, port, cell, tid)

    def queue_null(self, time: float) -> None:
        """Queue a null message (time horizon announcement).

        Deduplicated per handle: several endpoints announcing the same
        horizon collapse to one op, so per-port fan-out cannot inflate
        the wire stream (nor change replay semantics — nulls are
        idempotent at equal time).
        """
        if time <= self._last_null:
            return
        self._last_null = time
        self._batch.add_null(time)

    def queue_tick(self, time: float) -> None:
        """Queue a tariff tick for the shard's accounting unit."""
        self._batch.add_tick(time)

    def _take_batch(self) -> OpBatch:
        batch, self._batch = self._batch, OpBatch()
        self.ops_sent += len(batch)
        return batch

    def _record_mark(self) -> None:
        self._marks.append([len(times) for times in self._out_times])

    def _close_window(self) -> None:
        """Flush a window's ops and set its output mark (locally the
        replay is done when ``flush`` returns)."""
        self.flush()
        self._record_mark()

    def _window_mark(self, window: int) -> List[int]:
        """The mark of the *window*-th :meth:`_close_window`; a remote
        handle drains acks only until that mark is set."""
        while len(self._marks) <= window:
            self._drain_ack()
        return self._marks[window]

    def _store_packed(self, packed) -> None:
        """File one ack's output columns into the per-port collectors
        (an :class:`~repro.shard.codec.PackedOutputs` view or an
        :class:`~repro.shard.codec.OutputBatch` — the octets are
        copied here, because wire views die with the next recv).

        ``new_outputs_packed`` emits cells grouped by ascending port,
        so each port's run is located with two bisects and copied as
        one column slice — no per-cell Python loop.  A batch that is
        *not* port-grouped (hand-built in tests) falls back to the
        per-cell walk.
        """
        n = len(packed)
        if n == 0:
            return
        times, ports, blob = packed.times, packed.ports, packed.blob
        tids = getattr(packed, "tids", None)
        out_times, out_blobs = self._out_times, self._out_blobs
        out_tids = self._out_tids
        covered = 0
        spans = []
        for port in range(self.num_ports):
            lo = bisect_left(ports, port)
            hi = bisect_left(ports, port + 1, lo)
            spans.append((port, lo, hi))
            covered += hi - lo
        if covered == n:
            for port, lo, hi in spans:
                if lo == hi:
                    continue
                chunk = times[lo:hi]
                if not hasattr(chunk, "tobytes"):
                    chunk = array("d", chunk)  # pragma: no cover
                out_times[port].frombytes(chunk.tobytes())
                if tids is None:
                    out_tids[port].frombytes(bytes(8 * (hi - lo)))
                else:
                    tid_chunk = tids[lo:hi]
                    if not hasattr(tid_chunk, "tobytes"):
                        tid_chunk = array(  # pragma: no cover
                            _UINT8, tid_chunk)
                    out_tids[port].frombytes(tid_chunk.tobytes())
                out_blobs[port] += blob[lo * CELL_OCTETS:
                                        hi * CELL_OCTETS]
            return
        for i in range(n):
            port = ports[i]
            out_times[port].append(times[i])
            out_tids[port].append(tids[i] if tids is not None else 0)
            out_blobs[port] += blob[i * CELL_OCTETS:
                                    (i + 1) * CELL_OCTETS]

    def _store_outputs(self, fresh: List[Tuple]) -> None:
        """Tuple-list twin of :meth:`_store_packed` (the residual
        outputs a ``FRAME_RESULT`` carries) — tuples are
        ``(port, t, octets)`` or ``(port, t, octets, tid)``."""
        for entry in fresh:
            port, when, octets = entry[0], entry[1], entry[2]
            self._out_times[port].append(when)
            self._out_tids[port].append(entry[3]
                                        if len(entry) > 3 else 0)
            self._out_blobs[port] += octets

    # -- views ---------------------------------------------------------
    def output_count(self, port: int) -> int:
        """Collected output cells of *port* so far."""
        return len(self._out_times[port])

    def output_cells(self, port: int) -> List[Tuple[float, AtmCell]]:
        """The collected output stream of *port* as
        ``(seconds, AtmCell)`` tuples (parsed on demand)."""
        times, blob = self._out_times[port], self._out_blobs[port]
        return [(times[i],
                 AtmCell.from_octets(
                     blob[i * CELL_OCTETS:(i + 1) * CELL_OCTETS],
                     verify_hec=False))
                for i in range(len(times))]

    def output_blob(self, port: int) -> bytes:
        """*port*'s whole output stream as one contiguous octet blob
        (53 octets per cell, stream order) — the per-port digests
        hash this in a single update."""
        return bytes(self._out_blobs[port])

    def drain_outputs(self, port: int,
                      start: int) -> List[Tuple[float, memoryview,
                                                int]]:
        """``(seconds, octets, tid)`` triples of *port*'s stream from
        index *start* on — the chain-forwarding feed (*tid* is 0 when
        unobserved, so re-queueing downstream preserves provenance
        exactly when it exists).  The octets are memoryview slices
        into the collector; consume them before the handle stores
        more outputs."""
        times = self._out_times[port]
        tids = self._out_tids[port]
        blob = memoryview(self._out_blobs[port])
        return [(times[i],
                 blob[i * CELL_OCTETS:(i + 1) * CELL_OCTETS],
                 tids[i])
                for i in range(start, len(times))]


class ShardHandle(_HandleBase):
    """Drives one shard worker process over a transport.

    Args:
        shard_id: shard name (error attribution).
        transport: the coordinator end of the worker coupling.
        num_ports: switch port count (shapes the output collectors).
        max_batch: max ops per ``FRAME_OPS`` frame.
        max_inflight: unacknowledged frames to keep in flight; 1
            degenerates to strict request/reply, larger values
            pipeline shard compute behind coordinator op generation.
        process: optional :class:`multiprocessing.Process` backing the
            shard — lets transport deaths report the exit code.
    """

    def __init__(self, shard_id: str, transport: Transport,
                 num_ports: int = 4,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 process=None) -> None:
        super().__init__(shard_id, num_ports)
        self.transport = transport
        self.max_batch = max(1, max_batch)
        self.max_inflight = max(1, max_inflight)
        self.process = process
        self._seq = 0
        self._inflight = 0
        #: seqs of the frames whose acks set the pending window marks
        self._mark_seqs: Deque[int] = deque()

    # -- failure shaping ----------------------------------------------
    def _died(self, exc: TransportClosed) -> protocol.ShardError:
        detail = f"shard process died mid-exchange: {exc}"
        if self.process is not None:
            self.process.join(timeout=2.0)
            detail += (f" (exitcode={self.process.exitcode})")
        return protocol.ShardError(
            self.shard_id, {"type": "TransportClosed",
                            "message": str(exc), "traceback": detail})

    def _recv(self) -> Tuple[str, Any]:
        try:
            return self.transport.recv()
        except TransportClosed as exc:
            raise self._died(exc) from exc

    def _send(self, frame: protocol.Frame) -> None:
        try:
            self.transport.send(frame)
        except TransportClosed as exc:
            raise self._died(exc) from exc

    def _drain_ack(self) -> None:
        kind, payload = self._recv()
        if kind == protocol.FRAME_ERROR:
            self._inflight = 0
            protocol.raise_remote(self.shard_id, payload)
        if kind != protocol.FRAME_ACK:
            raise protocol.ShardError(
                self.shard_id,
                {"type": "ProtocolError",
                 "message": f"expected ack, got {kind!r}",
                 "traceback": ""})
        seq, outputs = payload
        self._store_packed(outputs)
        self._inflight -= 1
        while self._mark_seqs and self._mark_seqs[0] <= seq:
            self._mark_seqs.popleft()
            self._record_mark()

    def _close_window(self) -> None:
        """Flush a window's ops; its mark is set by the ack of the last
        frame sent so far."""
        self.flush()
        if self._inflight:
            self._mark_seqs.append(self._seq)
        else:
            self._record_mark()

    # -- exchange ------------------------------------------------------
    def flush(self) -> None:
        """Ship all queued ops, draining acks only when the pipeline
        window is full — the coordinator keeps generating ops while
        the shard computes."""
        for batch in self._take_batch().split(self.max_batch):
            while self._inflight >= self.max_inflight:
                self._drain_ack()
            self._seq += 1
            self._send((protocol.FRAME_OPS, (self._seq, batch)))
            self._inflight += 1

    def barrier(self) -> None:
        """Flush and wait until every in-flight frame is acknowledged
        (all queued ops replayed, all outputs so far collected)."""
        self.flush()
        while self._inflight > 0:
            self._drain_ack()

    def finish(self, time: float) -> Dict[str, Any]:
        """Barrier, then drain/settle the shard at *time*; returns and
        stores the shard's result report."""
        self.barrier()
        self._send((protocol.FRAME_FINISH, time))
        kind, payload = self._recv()
        if kind == protocol.FRAME_ERROR:
            protocol.raise_remote(self.shard_id, payload)
        self._store_outputs(payload.pop("residual_outputs", []))
        self.result = payload
        return payload

    def snapshot(self) -> Dict[str, Any]:
        """A live result report without finishing the shard."""
        self.barrier()
        self._send((protocol.FRAME_SNAPSHOT, None))
        kind, payload = self._recv()
        if kind == protocol.FRAME_ERROR:
            protocol.raise_remote(self.shard_id, payload)
        return payload

    def telemetry(self) -> Dict[str, Any]:
        """The worker's observability payload (instruments, spans,
        coverage — see :meth:`ShardGroup.telemetry`), fetched over
        the wire with a ``FRAME_TELEMETRY`` exchange.  Callable both
        mid-run (after a barrier) and after :meth:`finish`."""
        self.barrier()
        self._send((protocol.FRAME_TELEMETRY, None))
        kind, payload = self._recv()
        if kind == protocol.FRAME_ERROR:
            protocol.raise_remote(self.shard_id, payload)
        if kind != protocol.FRAME_TELEMETRY:
            raise protocol.ShardError(
                self.shard_id,
                {"type": "ProtocolError",
                 "message": f"expected telemetry, got {kind!r}",
                 "traceback": ""})
        return payload

    def close(self) -> None:
        """Ask the worker to exit and close the transport
        (best-effort, idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self.transport.send((protocol.FRAME_CLOSE, None))
        except TransportClosed:
            pass
        self.transport.close()

    def stats(self) -> Dict[str, int]:
        """Exchange counters: ops shipped plus transport frames *and
        octets* both ways (the per-shard sync/exchange metrics of the
        report — octets measure the codec's framing efficiency)."""
        stats = self.transport.stats()
        stats["ops_sent"] = self.ops_sent
        return stats


class LocalShardHandle(_HandleBase):
    """The in-process reference twin of :class:`ShardHandle`.

    Applies the identical packed op batches to a local
    :class:`~repro.shard.group.ShardGroup` — no processes, no
    transport — so a "sharded" topology can run single-process for
    debugging, CI determinism checks, and the byte-identical
    equivalence comparison.
    """

    def __init__(self, shard_id: str, num_ports: int = 4,
                 level: str = "auto", accounting: bool = True,
                 observe: bool = False, trace=None) -> None:
        super().__init__(shard_id, num_ports)
        self.group = ShardGroup(shard_id, level=level,
                                num_ports=num_ports,
                                accounting=accounting,
                                observe=observe, trace=trace)

    def flush(self) -> None:
        """Replay all queued ops into the local group (through the
        same packed surface the worker uses) and collect the outputs
        they produced."""
        batch = self._take_batch()
        if len(batch):
            self.group.apply_packed(batch.packed())
            self._store_packed(self.group.new_outputs_packed())

    def barrier(self) -> None:
        """Same as :meth:`flush` — nothing is ever in flight
        locally."""
        self.flush()

    def finish(self, time: float) -> Dict[str, Any]:
        """Flush, drain/settle the local group at *time*, store and
        return its result report."""
        self.flush()
        self.group.finish(time)
        self._store_packed(self.group.new_outputs_packed())
        self.result = self.group.result()
        return self.result

    def snapshot(self) -> Dict[str, Any]:
        """A live result report of the local group."""
        self.flush()
        return self.group.result()

    def telemetry(self) -> Dict[str, Any]:
        """The local group's observability payload — same shape as
        the remote :meth:`ShardHandle.telemetry` reply."""
        self.flush()
        return self.group.telemetry()

    def close(self) -> None:
        """Flush the group's trace sink (idempotent)."""
        if not self._closed:
            self._closed = True
            self.group.close()

    def stats(self) -> Dict[str, int]:
        """Exchange counters (zero frames/octets — everything is
        local)."""
        return {"frames_sent": 0, "frames_received": 0,
                "bytes_sent": 0, "bytes_received": 0,
                "ops_sent": self.ops_sent}


class ShardPortEndpoint(DutContract):
    """One shard switch port presented as a
    :class:`~repro.core.contract.DutContract`.

    ``send_cell``/``advance_time``/``send_tariff_tick`` queue ops on
    the backing handle (nulls deduplicate per handle, so the per-port
    fan-out of an environment's time listener cannot inflate the wire
    stream); ``finish`` finishes the *handle* once — subsequent port
    endpoints of the same shard see it already settled.  Output cells
    are parsed lazily from the handle's collected octet stream.

    This is what makes mixed-level sharded topologies compose: a
    driver written against ``DutContract`` cannot tell a remote RTL
    shard from a local behavioural twin.
    """

    def __init__(self, handle, port: int) -> None:
        self.handle = handle
        self.port = port
        self.level = "rtl"
        self.on_output: Optional[Callable[[float, AtmCell],
                                          None]] = None
        self.cells_in = 0
        self.ticks_in = 0

    @property
    def output_cells(self) -> List[Tuple[float, AtmCell]]:
        """Collected output cells of this port (parsed on demand from
        the handle's octet stream)."""
        return self.handle.output_cells(self.port)

    def send_cell(self, time: float, cell) -> None:
        """Queue one cell for this shard port at netsim *time*."""
        self.cells_in += 1
        self.handle.queue_cell(time, self.port, cell)

    def send_tariff_tick(self, time: float) -> None:
        """Queue a tariff tick for the shard's accounting unit."""
        self.ticks_in += 1
        self.handle.queue_tick(time)

    def advance_time(self, time: float) -> None:
        """Queue a null message (deduplicated per handle)."""
        self.handle.queue_null(time)

    def finish(self, time: Optional[float] = None) -> None:
        """Finish the backing handle once (idempotent across the
        shard's port endpoints)."""
        if self.handle.result is None:
            self.handle.finish(time if time is not None else 0.0)

    def snapshot(self) -> Dict[str, object]:
        """Per-endpoint snapshot: identity, stimulus counters and the
        handle's exchange stats."""
        return {
            "level": self.level,
            "shard": self.handle.shard_id,
            "port": self.port,
            "cells_in": self.cells_in,
            "ticks_in": self.ticks_in,
            "output_cells": self.handle.output_count(self.port),
            "exchange": self.handle.stats(),
        }
