"""Wire protocol between the shard coordinator and shard workers.

The protocol is an *op-log replay* discipline.  The coordinator never
talks to the worker's DUT objects directly; it records the exact
sequence of co-simulation operations it would have applied locally —
cells, null messages (timing windows), tariff ticks — and ships them
in batched ``FRAME_OPS`` frames.  The worker replays the ops verbatim
into its :class:`~repro.shard.group.ShardGroup`.  Because the local
reference mode (:class:`~repro.shard.client.LocalShardHandle`) applies
the *identical* op stream through the *same* ``ShardGroup`` code path,
a sharded topology is byte-identical to a single-process run by
construction — batching only changes how many frames carry the ops,
never which ops arrive.

Ops (compact tuples, first element is the op code):

* ``(OP_CELL, t, port, payload)`` — deliver an ATM cell (53 octets,
  ``bytes``) to the switch ingress *port* at netsim time *t*.
* ``(OP_NULL, t)`` — a null message: the conservative protocol's
  promise that no event earlier than *t* is still coming; advances
  every entity's time horizon (PR 4's coalescing already minimised
  how many of these exist before they ever reach the transport).
* ``(OP_TICK, t)`` — a tariff period tick for the accounting unit.

Frames (``(kind, payload)`` tuples):

* ``(FRAME_OPS, (seq, batch))`` → worker; *batch* is the columnar op
  batch (an :class:`~repro.shard.codec.OpBatch` on the send side,
  decoded as a zero-copy :class:`~repro.shard.codec.PackedOps` on the
  receive side — one code string, one f64 time column, one i32 port
  column, one concatenated cell blob; the worker replays it without
  ever rebuilding op tuples via
  :meth:`~repro.shard.group.ShardGroup.apply_packed`).  The worker
  answers ``(FRAME_ACK, (seq, outputs))`` where *outputs* is the list
  of new ``(port, t, octets)`` output cells observed since the last
  ack — the piggy-backed reverse stream that makes one exchange per
  window suffice (the transaction-pipe pattern from SCE-MI).
* ``(FRAME_FINISH, t)`` → worker; drains/settles the group and
  answers ``(FRAME_RESULT, report)`` with counters, records, sync
  stats and any residual outputs.
* ``(FRAME_SNAPSHOT, None)`` → worker; answers
  ``(FRAME_RESULT, snapshot)`` without finishing.
* ``(FRAME_TELEMETRY, None)`` → worker; answers
  ``(FRAME_TELEMETRY, telemetry)`` with the shard's observability
  payload — metrics-registry snapshot, provenance spans, trace
  records and coverage counters (see
  :meth:`~repro.shard.group.ShardGroup.telemetry`).  Telemetry rides
  the same tag codec as every other control payload; nothing new is
  pickled.
* ``(FRAME_CLOSE, None)`` → worker exits its loop (no reply).
* ``(FRAME_ERROR, info)`` ← worker when replay raised; *info* carries
  ``type``/``message``/``traceback`` strings so the coordinator can
  re-raise with the full remote traceback (the PR 7 sweep-report
  policy applied to shards).

On the wire every frame is binary — struct-packed header, columnar op
payloads, a safe tag codec for control values; nothing is pickled in
either direction (see :mod:`repro.shard.codec`).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

__all__ = ["OP_CELL", "OP_NULL", "OP_TICK",
           "FRAME_OPS", "FRAME_ACK", "FRAME_FINISH", "FRAME_RESULT",
           "FRAME_SNAPSHOT", "FRAME_ERROR", "FRAME_CLOSE",
           "FRAME_HELLO", "FRAME_TELEMETRY", "ShardError",
           "error_info", "raise_remote"]

#: op codes (single chars keep frames compact on the wire)
OP_CELL = "c"
OP_NULL = "n"
OP_TICK = "k"

#: frame kinds
FRAME_OPS = "ops"
FRAME_ACK = "ack"
FRAME_FINISH = "finish"
FRAME_RESULT = "result"
FRAME_SNAPSHOT = "snapshot"
FRAME_ERROR = "error"
FRAME_CLOSE = "close"
#: first frame of a socket-coupled worker: ("hello", shard_id) — lets
#: the coordinator map accepted connections back to shards regardless
#: of connect order
FRAME_HELLO = "hello"
#: bidirectional telemetry exchange: the coordinator sends
#: ``(FRAME_TELEMETRY, None)`` and the worker answers
#: ``(FRAME_TELEMETRY, payload)`` with its observability snapshot
FRAME_TELEMETRY = "telemetry"

Op = Tuple[Any, ...]
Frame = Tuple[str, Any]


class ShardError(RuntimeError):
    """A shard worker failed; carries the remote traceback.

    ``shard`` names the shard, ``info`` is the raw
    ``{"type", "message", "traceback"}`` payload from the worker (or a
    synthesised one for transport-level deaths such as a crash
    mid-window).
    """

    def __init__(self, shard: str, info: Dict[str, str]) -> None:
        self.shard = shard
        self.info = dict(info)
        detail = info.get("traceback") or info.get("message") or "?"
        super().__init__(
            f"shard {shard!r} failed: {info.get('type', 'Error')}: "
            f"{info.get('message', '')}\n--- remote traceback ---\n"
            f"{detail}")


def error_info(exc: BaseException) -> Dict[str, str]:
    """Serialise an exception into the wire error payload
    (``type``/``message``/``traceback``), full traceback included."""
    import traceback as _tb
    return {"type": type(exc).__name__,
            "message": str(exc),
            "traceback": "".join(_tb.format_exception(
                type(exc), exc, exc.__traceback__))}


def raise_remote(shard: str, frame_payload: Dict[str, str]) -> None:
    """Raise :class:`ShardError` for a worker ``FRAME_ERROR`` payload."""
    raise ShardError(shard, frame_payload)
