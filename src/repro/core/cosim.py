"""The co-simulation entity (§3, Figure 2).

"In the VSS simulation a C-language based co-simulation entity is
instantiated, that receives messages from [the] OPNET-side interface
process.  It also performs signal conditioning, e.g. mapping a data
structure to bit or word-level signal streams and generation of
additional control signals."

:class:`CosimulationEntity` is that component: it owns the HDL-side
machinery (cell sender on the DUT input port, cell receiver on the DUT
output port, the conservative synchroniser) and exposes the
message-level API the network-simulator side drives.
"""

from __future__ import annotations

import warnings
from collections import deque
from typing import (Callable, Deque, Dict, List, Optional, Tuple,
                    TYPE_CHECKING)

from ..atm.cell import AtmCell
from ..hdl.signal import Signal
from ..hdl.simulator import Simulator
from ..netsim.packet import Packet
from ..rtl.cell_stream import CellReceiver, CellSender, CellStreamPort
from .contract import DutContract
from .mapping import CellMapper
from .messages import TimestampedMessage
from .sync import ConservativeSynchronizer, LockstepSynchronizer
from .timebase import TimeBase

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry
    from ..obs.provenance import ProvenanceTracker
    from ..obs.trace import TraceWriter

__all__ = ["CosimulationEntity", "ResidualBacklogWarning", "CELL_MSG",
           "TICK_MSG"]

#: message type of a data cell crossing into the HDL simulator
CELL_MSG = "cell"
#: message type of a tariff-interval tick (accounting case study)
TICK_MSG = "tariff_tick"


class ResidualBacklogWarning(RuntimeWarning):
    """Issued when :meth:`CosimulationEntity.finish` exhausts its
    settle budget with stimulus still queued or a cell still being
    collected — ``output_cells`` is then truncated."""


class CosimulationEntity(DutContract):
    """The HDL-side endpoint of the simulator coupling.

    Args:
        hdl: the HDL simulator hosting the DUT.
        clk: the DUT clock signal.
        timebase: second/tick conversion (must match *clk*'s period).
        rx_port: the DUT's input cell-stream port (stimulus side).
        tx_port: the DUT's output cell-stream port (response side),
            optional for sink-only DUTs such as the accounting unit.
        tick_signal: optional scalar DUT input pulsed by TICK_MSG
            messages (the accounting unit's ``tariff_tick``).
        deltas: per-message-type processing delays δ_j in DUT clocks;
            defaults cover CELL_MSG (53 octet clocks + pipeline slack)
            and TICK_MSG.
        lockstep: use the naive per-clock synchroniser instead of the
            conservative timing-window protocol (the E2 ablation).
        provenance: optional cell-journey tracker
            (:class:`repro.obs.provenance.ProvenanceTracker`); the
            entity then records the ``post``/``release``/``ingress``/
            ``dut_out`` hops of every sampled cell crossing the
            abstraction interface.

    Outputs captured from ``tx_port`` are collected in
    :attr:`output_cells` as ``(hdl_seconds, AtmCell)`` tuples and
    passed to :attr:`on_output` when set.

    The entity advances the DUT exclusively through ``hdl.run(until=...)``
    (via the synchroniser), so it does not care which kernel clock
    drives *clk*: under the environment's
    :class:`~repro.hdl.cycle.CycleEngine` every granted window executes
    through the engine's edge loop, under ``hdl.add_clock`` it
    runs the event scheduler — byte-identical traces either way.
    """

    level = "rtl"

    def __init__(self, hdl: Simulator, clk: Signal, timebase: TimeBase,
                 rx_port: CellStreamPort,
                 tx_port: Optional[CellStreamPort] = None,
                 tick_signal: Optional[Signal] = None,
                 deltas: Optional[Dict[str, int]] = None,
                 lockstep: bool = False,
                 metrics: Optional["MetricsRegistry"] = None,
                 trace: Optional["TraceWriter"] = None,
                 provenance: Optional["ProvenanceTracker"] = None
                 ) -> None:
        self.hdl = hdl
        self.clk = clk
        self.timebase = timebase
        self.mapper = CellMapper()
        self.sender = CellSender(hdl, "castanet.stim", clk, port=rx_port)
        self.tick_signal = tick_signal
        self.output_cells: List[Tuple[float, AtmCell]] = []
        self.on_output: Optional[Callable[[float, AtmCell], None]] = None
        self.receiver: Optional[CellReceiver] = None
        if tx_port is not None:
            self.receiver = CellReceiver(hdl, "castanet.resp", clk,
                                         tx_port, on_cell=self._on_cell_out)

        if deltas is None:
            deltas = {CELL_MSG: timebase.clocks_per_cell + 2}
            if tick_signal is not None:
                deltas[TICK_MSG] = 2
        self.lockstep = lockstep
        if lockstep:
            self.sync = LockstepSynchronizer(hdl, timebase,
                                             handler=self._deliver)
        else:
            handlers = {CELL_MSG: self._deliver}
            if TICK_MSG in deltas:
                handlers[TICK_MSG] = self._deliver
            self.sync = ConservativeSynchronizer(hdl, timebase, deltas,
                                                 handlers=handlers,
                                                 coalesce_nulls=True)
        self.cells_in = 0
        self.ticks_in = 0
        #: earliest HDL tick at which the next tariff pulse may start
        #: (pulses are serialised so every tick has a distinct edge)
        self._tick_free = 0

        # -- observability (None-guarded; zero cost when absent) ------
        self._trace = trace
        self._prov = provenance
        self._ingress_hist = None
        self._e2e_hist = None
        self._latency_unmatched = None
        # The in-flight deques carry (netsim_time, trace_id) pairs so
        # FIFO latency matching and provenance share one bookkeeping
        # path; active when either consumer is wired in.
        self._track_cells = (provenance is not None
                             or (metrics is not None and metrics.enabled))
        self._inflight_ingress: Deque[Tuple[float,
                                            Optional[int]]] = deque()
        self._inflight_e2e: Deque[Tuple[float, Optional[int]]] = deque()
        self.sync.attach_observability(metrics, trace)
        if self._track_cells:
            self.sender.on_cell_sent = self._on_cell_ingress
        if metrics is not None and metrics.enabled:
            self._ingress_hist = metrics.histogram(
                "cosim.cell_ingress_latency_s")
            self._latency_unmatched = metrics.counter(
                "cosim.latency_unmatched")
            if self.receiver is not None:
                self._e2e_hist = metrics.histogram(
                    "cosim.cell_e2e_latency_s")

    # ------------------------------------------------------------------
    # Network-simulator-side API
    # ------------------------------------------------------------------
    def send_cell(self, time: float, cell) -> None:
        """Post one cell (an :class:`AtmCell` or a netsim packet)
        stamped with netsim *time*."""
        if isinstance(cell, Packet):
            cell = AtmCell.from_packet(cell)
        if self._track_cells:
            tid = cell.trace_id
            self._inflight_ingress.append((time, tid))
            if self.receiver is not None:
                self._inflight_e2e.append((time, tid))
            if self._prov is not None:
                self._prov.record_hop(
                    tid, "post", t=time,
                    hdl_s=self.timebase.to_seconds(self.hdl.now))
        self.sync.post(CELL_MSG, time, cell)

    def send_tariff_tick(self, time: float) -> None:
        """Post a tariff-interval tick stamped with netsim *time*."""
        if self.tick_signal is None:
            raise ValueError("entity has no tick signal configured")
        self.sync.post(TICK_MSG, time, None)

    def advance_time(self, time: float) -> None:
        """Null message: the network simulator reached *time*."""
        self.sync.advance_time(time)

    def finish(self, time: Optional[float] = None,
               max_settle_cells: int = 64) -> None:
        """Release all pending messages and settle the DUT.

        After the protocol drain, the DUT may still be clocking its
        last responses out (a cell in flight on ``tx_port``); the
        entity keeps the clock running, one cell time per round, until
        the output has been quiet for a full cell time.

        If *max_settle_cells* rounds pass with the DUT still busy
        (stimulus cells queued, or a cell partially collected on
        ``tx_port``), :attr:`output_cells` is truncated; a
        :class:`ResidualBacklogWarning` reporting the residual backlog
        is issued rather than returning silently.
        """
        if isinstance(self.sync, ConservativeSynchronizer):
            self.sync.drain(time)
        elif time is not None:
            self.sync.advance_time(time)
        cell_ticks = self.timebase.cell_time_ticks
        still_busy = (self.sender.backlog > 0
                      or (self.receiver is not None
                          and self.receiver.collecting))
        for _ in range(max_settle_cells):
            before = len(self.output_cells)
            target = self.hdl.now + cell_ticks
            # Keep the lag invariant formally intact while settling.
            self.sync.originator_time = max(
                self.sync.originator_time,
                self.timebase.to_seconds(target))
            self.hdl.run(until=target)
            still_busy = (self.sender.backlog > 0
                          or (self.receiver is not None
                              and self.receiver.collecting))
            if not still_busy and len(self.output_cells) == before:
                break
        if self._trace is not None:
            self._trace.emit("finish",
                             hdl_s=self.timebase.to_seconds(self.hdl.now),
                             residual=self.sender.backlog)
        if still_busy:
            collecting = (self.receiver is not None
                          and self.receiver.collecting)
            warnings.warn(
                f"CosimulationEntity.finish: settle budget of "
                f"{max_settle_cells} cell times exhausted with "
                f"{self.sender.backlog} stimulus cell(s) still queued"
                + (" and a cell partially collected on tx_port"
                   if collecting else "")
                + " — output_cells is truncated; raise max_settle_cells",
                ResidualBacklogWarning, stacklevel=2)

    def snapshot(self) -> Dict[str, object]:
        """Per-entity metrics snapshot: stimulus/response counters,
        sender statistics and the synchroniser's exchange counts."""
        return {
            "level": self.level,
            "cells_in": self.cells_in,
            "ticks_in": self.ticks_in,
            "output_cells": len(self.output_cells),
            "sender_backlog": self.sender.backlog,
            "sender_template_hits": self.sender.template_hits,
            "sender_template_misses": self.sender.template_misses,
            "sync": self.sync.stats.as_dict(),
        }

    # ------------------------------------------------------------------
    # HDL-side internals
    # ------------------------------------------------------------------
    def _deliver(self, message: TimestampedMessage) -> None:
        if message.msg_type == CELL_MSG:
            self.cells_in += 1
            if self._prov is not None:
                self._prov.record_hop(
                    getattr(message.payload, "trace_id", None),
                    "release", t=message.time,
                    hdl_s=self.timebase.to_seconds(self.hdl.now))
            self.sender.send(self.mapper.cell_to_octets(message.payload))
        elif message.msg_type == TICK_MSG:
            self.ticks_in += 1
            # Pulses are serialised: back-to-back ticks within one
            # clock period would otherwise merge into a single high
            # level (one observable edge for several ticks).  Each
            # pulse is one period high followed by one period low, so
            # every tick produces a distinct rising edge on the DUT.
            # A pulse also waits until the cells released before it
            # have clocked in (``CellSender.drained_at``), so it cannot
            # overtake them.  A pulse due on the rising edge the kernel
            # has just evaluated starts one tick later: that edge has
            # sampled the line already, and the pulse's fall would land
            # on the next edge before it samples — no edge would see it.
            period = self.timebase.clock_period_ticks
            now = self.hdl.now
            start = max(now, self._tick_free, self.sender.drained_at)
            if start == now and self.hdl.next_rising_edge(
                    self.clk, after=now - 1) == now:
                start += 1
            delay = start - now
            self.tick_signal.drive("1", delay=delay)
            self.tick_signal.drive("0", delay=delay + period)
            self._tick_free = start + 2 * period
            if self._trace is not None:
                self._trace.emit("tick_pulse", hdl_tick=start,
                                 deferred_ticks=delay)
        else:  # pragma: no cover - future message types
            raise KeyError(f"unhandled message type {message.msg_type!r}")

    def _on_cell_ingress(self) -> None:
        """Observability hook: a stimulus cell finished clocking into
        the DUT — record netsim-injection → ingress-complete latency
        and the cell's ``ingress`` provenance hop."""
        if not self._inflight_ingress:
            if self._latency_unmatched is not None:
                self._latency_unmatched.inc()
            return
        injected, tid = self._inflight_ingress.popleft()
        hdl_s = self.timebase.to_seconds(self.hdl.now)
        if self._ingress_hist is not None:
            self._ingress_hist.record(max(0.0, hdl_s - injected))
        if self._prov is not None:
            self._prov.record_hop(tid, "ingress", hdl_s=hdl_s)

    def _on_cell_out(self, octets: List[int]) -> None:
        cell = self.mapper.octets_to_cell(octets)
        when = self.timebase.to_seconds(self.hdl.now)
        self.output_cells.append((when, cell))
        if self._track_cells and self.receiver is not None:
            # FIFO matching: exact for in-order DUTs; a dropped cell
            # skews subsequent samples (counted via latency_unmatched
            # when the deque underruns).
            if self._inflight_e2e:
                injected, tid = self._inflight_e2e.popleft()
                latency = max(0.0, when - injected)
                if self._e2e_hist is not None:
                    self._e2e_hist.record(latency)
                    if self._trace is not None:
                        self._trace.emit("cell_out", hdl_s=when,
                                         latency_s=latency)
                if self._prov is not None:
                    cell.trace_id = tid
                    self._prov.record_hop(tid, "dut_out", hdl_s=when)
            elif self._latency_unmatched is not None:
                self._latency_unmatched.inc()
        if self.on_output is not None:
            self.on_output(when, cell)
