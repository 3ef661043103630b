"""One DUT shard: a 4-port switch + accounting unit behind an op log.

:class:`ShardGroup` owns one
:class:`~repro.core.CoVerificationEnvironment` hosting the shard's
swappable DUTs (built through :func:`repro.behav.factory.build_dut`,
so ``level="rtl"|"behav"|"auto"`` works per shard) and exposes one
way to drive them: replaying the coordinator's op log in order —
:meth:`apply_packed` for the columnar batches the binary codec
produces (the hot path, decode-free: cells are sliced straight out of
the received blob) and :meth:`apply_ops` for classic op-tuple lists.

This is the linchpin of the sharded-equals-local guarantee: the shard
*worker process* replays ops it received over a transport, and the
*local reference mode* (:class:`~repro.shard.client.LocalShardHandle`)
replays the identical op list in-process — both through this one code
path.  Whatever the conservative synchronisers inside the environment
do (window grants, null coalescing, settle loops), they do identically
in both modes, so the output cell streams are byte-identical by
construction rather than by careful re-implementation.

The default shard shape follows the topology item in ROADMAP.md:
an N-port ATM switch fabric with a ring routing table (input *i* →
output *(i+1) mod N*, connection ``(1, 100+i)`` → ``(2, 200+i)``), and
an accounting unit metering the same connections off the ingress
stream.  ``accounting=False`` drops the accounting unit for pure
switching shards.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..atm.cell import AtmCell
from ..behav.factory import DutHandle, build_dut
from ..core.environment import CoVerificationEnvironment
from . import codec, protocol

__all__ = ["ShardGroup"]


class ShardGroup:
    """One shard's DUTs plus the op-replay surface.

    Args:
        shard_id: name of this shard (environment/trace naming, error
            attribution).
        level: DUT abstraction level ("rtl" | "behav" | "auto"; auto
            resolves through the usual precedence chain, see
            :func:`repro.core.contract.resolve_level`).
        num_ports: switch fabric port count (default 4, the paper's
            shape).
        accounting: couple an accounting unit metering the ingress
            stream (default True).
        observe: enable the metrics registry (off by default — shards
            report sync stats regardless; full instrument histograms
            are opt-in).
        trace: optional trace sink path/writer, forwarded to the
            environment (the worker stamps its shard id on every
            record via ``TraceWriter`` defaults).
    """

    def __init__(self, shard_id: str, level: str = "auto",
                 num_ports: int = 4, accounting: bool = True,
                 observe: bool = False, trace=None) -> None:
        self.shard_id = shard_id
        self.num_ports = num_ports
        self.env = CoVerificationEnvironment(
            name=f"shard.{shard_id}", observe=observe, trace=trace,
            dut_level=level)
        #: the environment's provenance tracker (None when neither
        #: observe nor trace is on) — wire-stamped trace ids feed it
        self.prov = self.env.provenance
        self.switch: DutHandle = build_dut(
            self.env, "switch", name=f"{shard_id}.switch",
            num_ports=num_ports)
        self.level = self.switch.level
        for i in range(num_ports):
            # Ring routes: each output fed by exactly one input, so
            # per-output cell order is deterministic regardless of
            # fabric arbitration (same table the equivalence harness
            # uses).
            self.switch.design.install_connection(
                i, 1, 100 + i, (i + 1) % num_ports, 2, 200 + i)
            # Second-hop routes: a chained topology forwards shard
            # k's output port p into shard k+1's ingress port p, so
            # the translated (2, 200+i) headers arrive at port
            # (i+1) mod N and route onward as (3, 300+i).  Third-hop
            # cells are unknown by design — a chain longer than two
            # switches exercises the unknown-header path.
            self.switch.design.install_connection(
                (i + 1) % num_ports, 2, 200 + i,
                (i + 2) % num_ports, 3, 300 + i)
        self.accounting: Optional[DutHandle] = None
        if accounting:
            self.accounting = build_dut(
                self.env, "accounting", name=f"{shard_id}.acct")
            for i in range(num_ports):
                self.accounting.design.register(
                    1, 100 + i, units_per_cell=i + 1,
                    units_per_cell_clp1=i, fixed_units=2 * i)
        #: per-output-port read cursors into entity.output_cells
        self._out_cursor = [0] * num_ports
        self.ops_applied = 0
        self.finished = False

    # ------------------------------------------------------------------
    # Op replay
    # ------------------------------------------------------------------
    def apply_ops(self, ops: List[protocol.Op]) -> None:
        """Replay a batch of ops in order.

        Op shapes (see :mod:`repro.shard.protocol`):
        ``(OP_CELL, t, port, octets)`` delivers the 53-octet cell to
        switch ingress *port* and (when present) the accounting unit;
        ``(OP_NULL, t)`` advances every entity's horizon;
        ``(OP_TICK, t)`` pulses the accounting tariff tick.
        """
        switch_entities = self.switch.entities
        acct = self.accounting.entity if self.accounting else None
        for op in ops:
            code = op[0]
            if code == protocol.OP_CELL:
                _, t, port, octets = op
                cell = AtmCell.from_octets(octets, verify_hec=False)
                switch_entities[port].send_cell(t, cell)
                if acct is not None:
                    acct.send_cell(t, cell)
            elif code == protocol.OP_NULL:
                t = op[1]
                for entity in switch_entities:
                    entity.advance_time(t)
                if acct is not None:
                    acct.advance_time(t)
            elif code == protocol.OP_TICK:
                if acct is None:
                    raise ValueError(
                        f"shard {self.shard_id!r} has no accounting "
                        "unit to tick")
                acct.send_tariff_tick(op[1])
            else:
                raise ValueError(f"unknown op code {code!r}")
            self.ops_applied += 1

    def apply_packed(self, packed) -> None:
        """Replay one :class:`~repro.shard.codec.PackedOps` batch.

        The decode-free twin of :meth:`apply_ops`: cells are sliced
        straight out of the received blob (``memoryview`` slices into
        the transport's receive buffer — :meth:`AtmCell.from_octets`
        copies the 53 octets immediately, so nothing outlives the
        buffer) and no per-op tuple is ever built.  Both the worker
        process and the local reference mode replay through this one
        method, preserving the byte-identity-by-construction argument
        of :meth:`apply_ops`.
        """
        switch_entities = self.switch.entities
        acct = self.accounting.entity if self.accounting else None
        codes, times, ports, blob = (packed.codes, packed.times,
                                     packed.ports, packed.blob)
        tids = getattr(packed, "tids", None)
        prov = self.prov
        cell_at = 0
        for i in range(packed.n_ops):
            code = codes[i]
            if code == codec.CODE_CELL:
                t = times[i]
                cell = AtmCell.from_octets(
                    blob[cell_at * codec.CELL_OCTETS:
                         (cell_at + 1) * codec.CELL_OCTETS],
                    verify_hec=False)
                if tids is not None:
                    # Cross-shard provenance: the coordinator stamped
                    # this cell's trace id into the op log; restore it
                    # (metadata only — never part of the 53 octets, so
                    # byte-identity is untouched) and span the shard
                    # ingress hop with this process's attribution.
                    tid = tids[cell_at]
                    if tid:
                        cell.trace_id = tid
                        if prov is not None:
                            prov.record_hop(tid, "shard_in", t=t,
                                            shard=self.shard_id,
                                            port=ports[cell_at])
                switch_entities[ports[cell_at]].send_cell(t, cell)
                if acct is not None:
                    acct.send_cell(t, cell)
                cell_at += 1
            elif code == codec.CODE_NULL:
                t = times[i]
                for entity in switch_entities:
                    entity.advance_time(t)
                if acct is not None:
                    acct.advance_time(t)
            elif code == codec.CODE_TICK:
                if acct is None:
                    raise ValueError(
                        f"shard {self.shard_id!r} has no accounting "
                        "unit to tick")
                acct.send_tariff_tick(times[i])
            else:
                raise ValueError(f"unknown op code {chr(code)!r}")
        self.ops_applied += packed.n_ops

    def new_outputs_packed(self) -> codec.OutputBatch:
        """Output cells that appeared since the previous call, as one
        columnar :class:`~repro.shard.codec.OutputBatch` in per-port
        stream order — the piggy-back payload of each ``FRAME_ACK``
        (encoded column-for-column, no per-cell tuples)."""
        batch = codec.OutputBatch()
        prov = self.prov
        # Hop recording stops once the environment is closed (the
        # trace sink is flushed then); residual outputs drained after
        # finish() still carry their ids back on the wire.
        record = prov is not None and not self.finished
        for port, entity in enumerate(self.switch.entities):
            cells = entity.output_cells
            cursor = self._out_cursor[port]
            for when, cell in cells[cursor:]:
                tid = cell.trace_id or 0
                batch.add(port, when, cell.to_octets(), tid)
                if tid and record:
                    prov.record_hop(tid, "shard_out", t=when,
                                    shard=self.shard_id, port=port)
            self._out_cursor[port] = len(cells)
        return batch

    def new_outputs(self) -> List[Tuple[int, float, bytes, int]]:
        """Tuple-list form of :meth:`new_outputs_packed` (same cursor)
        — the residual-output field of ``FRAME_RESULT`` and tooling.
        Each tuple is ``(port, t, octets, tid)`` so residual cells
        keep their provenance ids across the result frame too."""
        packed = self.new_outputs_packed()
        blob = packed.blob
        return [(packed.ports[i], packed.times[i],
                 bytes(blob[i * codec.CELL_OCTETS:
                            (i + 1) * codec.CELL_OCTETS]),
                 packed.tids[i])
                for i in range(len(packed))]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finish(self, time: float) -> None:
        """Drain and settle every entity up to *time*; RTL accounting
        shards additionally stream the queued record words off the
        record bus (one word per clock)."""
        if self.finished:
            return
        for entity in self.switch.entities:
            entity.finish(time)
        if self.accounting is not None:
            self.accounting.entity.finish(time)
            if self.accounting.level == "rtl":
                self.env.hdl.run(
                    until=self.env.hdl.now
                    + 256 * self.env.timebase.clock_period_ticks)
        self.env.close()
        self.finished = True

    def close(self) -> None:
        """Flush the trace sink without advancing any simulator
        (idempotent; safe after a failed replay)."""
        self.env.close()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _clocks(self) -> int:
        """Executed (RTL) or modelled (behav) whole DUT clocks."""
        if self.level == "rtl":
            return int(self.env.hdl.now
                       // self.env.timebase.clock_period_ticks)
        entities = list(self.switch.entities)
        if self.accounting is not None:
            entities.append(self.accounting.entity)
        return max(entity.modelled_clocks for entity in entities)

    def sync_stats(self) -> Dict[str, int]:
        """Aggregated conservative-protocol statistics across this
        shard's entities (all zero at the behavioural level — no
        synchroniser exists there)."""
        totals = {"messages_posted": 0, "null_messages": 0,
                  "null_messages_coalesced": 0, "windows_granted": 0}
        entities = list(self.switch.entities)
        if self.accounting is not None:
            entities.append(self.accounting.entity)
        for entity in entities:
            sync = getattr(entity, "sync", None)
            if sync is None:
                continue
            stats = sync.stats.as_dict()
            for key in totals:
                totals[key] += int(stats.get(key, 0))
        return totals

    def telemetry(self) -> Dict[str, Any]:
        """This shard's distributed-telemetry payload: the metrics
        registry snapshot, the provenance span stream (shard-
        attributed, both time domains) and the coverage counters
        (FSM states, sync-window occupancy, hop latency tails,
        residual backlogs).  Plain data — the worker ships it back
        verbatim in a ``FRAME_TELEMETRY`` reply; merge N of these
        with :func:`repro.obs.merge.merge_telemetry`.  Callable
        mid-run and after :meth:`finish` alike."""
        from ..obs.distributed import build_telemetry
        entities = [entity.snapshot()
                    for entity in self.switch.entities]
        if self.accounting is not None:
            entities.append(self.accounting.entity.snapshot())
        return build_telemetry(self.shard_id, self.env,
                               level=self.level,
                               sync=self.sync_stats(),
                               entities=entities)

    def result(self) -> Dict[str, Any]:
        """The shard's end-of-run report: identity, counters, charging
        records, per-entity snapshots and clock/sync totals (the
        payload of the worker's ``FRAME_RESULT`` reply)."""
        entities = list(self.switch.entities)
        if self.accounting is not None:
            entities.append(self.accounting.entity)
        return {
            "shard": self.shard_id,
            "level": self.level,
            "ports": self.num_ports,
            "ops_applied": self.ops_applied,
            "cells_in": sum(e.cells_in
                            for e in self.switch.entities),
            "output_cells": sum(len(e.output_cells)
                                for e in self.switch.entities),
            "records": (list(self.accounting.records())
                        if self.accounting else []),
            "counters": {
                "switch": self.switch.counters(),
                "accounting": (self.accounting.counters()
                               if self.accounting else {}),
            },
            "clocks": self._clocks(),
            "sync": self.sync_stats(),
            "entities": [entity.snapshot() for entity in entities],
        }
