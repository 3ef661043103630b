"""RTL ATM switch slice: port modules + shared global control unit.

The hardware configuration of the paper's E1 measurement — "an ATM
switch consisting of four port modules, one global control unit" — as
one RTL top.  Unlike :class:`~repro.rtl.port_module.AtmPortModuleRtl`
(which owns a private translation RAM), the fabric's ports hold no
routing state: every received cell triggers a lookup request to the
shared :class:`~repro.rtl.control_unit.GlobalControlUnitRtl` over its
request/grant interface, and the translated cell is queued towards
the destination port's transmit stream.

This is the "HW functionality ... distributed over a number of
hardware devices" of the introduction, and the RTL counterpart of
:class:`repro.atm.switch.AtmSwitch` — the two are co-verified against
each other in ``tests/rtl/test_switch_fabric.py``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from ..hdl.compiled import slot_int
from ..hdl.logic import vector_to_int
from ..hdl.signal import Signal
from ..hdl.simulator import Simulator
from .cell_stream import CELL_OCTETS, CellStreamPort
from .component import Component
from .control_unit import GlobalControlUnitRtl
from .hec_circuit import crc8_step

__all__ = ["AtmSwitchRtl"]

_COSET = 0x55


class _PortState:
    """Per-port fast-path state (receive assembly + lookup + transmit)."""

    def __init__(self) -> None:
        self.rx_buffer: List[int] = []
        self.rx_crc = 0
        #: complete cells waiting for their GCU lookup
        self.lookup_fifo: Deque[List[int]] = deque()
        self.lookup_in_flight = False
        #: cells queued for transmission out of this port
        self.tx_queue: Deque[List[int]] = deque()
        self.tx_offset = 0
        #: the idle levels are already driven, so the per-edge '0'
        #: writes are skipped
        self.tx_idle = False


class AtmSwitchRtl(Component):
    """An N-port RTL switch built around the shared control unit.

    Args:
        sim, name, clk: as usual.
        num_ports: port-module count (the paper's setup: 4).
        lookup_latency: GCU table-walk latency in clocks.
        queue_depth: per-output-port cell queue bound (overflowing
            cells are dropped and counted).

    Per-port stream bundles live in :attr:`rx_ports` / :attr:`tx_ports`;
    connections are installed with :meth:`install_connection`.
    """

    def __init__(self, sim: Simulator, name: str, clk: Signal,
                 num_ports: int = 4, lookup_latency: int = 4,
                 queue_depth: int = 16) -> None:
        super().__init__(sim, name)
        if num_ports < 1:
            raise ValueError(f"need >= 1 port, got {num_ports}")
        if queue_depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.num_ports = num_ports
        self.queue_depth = queue_depth
        self.gcu = GlobalControlUnitRtl(sim, f"{name}.gcu", clk,
                                        num_clients=num_ports,
                                        lookup_latency=lookup_latency)
        self.rx_ports = [CellStreamPort(sim, f"{name}.p{i}.rx")
                         for i in range(num_ports)]
        self.tx_ports = [CellStreamPort(sim, f"{name}.p{i}.tx")
                         for i in range(num_ports)]
        self._ports = [_PortState() for _ in range(num_ports)]
        self.cells_received = 0
        self.cells_switched = 0
        self.cells_dropped_unknown = 0
        self.cells_dropped_overflow = 0
        self.hec_errors = 0
        self.idle_cells = 0
        self.clocked(clk, self._compile_seq)

    # ------------------------------------------------------------------
    # Management plane
    # ------------------------------------------------------------------
    def install_connection(self, in_port: int, vpi: int, vci: int,
                           out_port: int, out_vpi: int,
                           out_vci: int) -> None:
        """Program one connection into the GCU's table."""
        if not 0 <= out_port < self.num_ports:
            raise ValueError(f"output port {out_port} out of range")
        self.gcu.install(in_port, vpi, vci, out_port, out_vpi, out_vci)

    def remove_connection(self, in_port: int, vpi: int,
                          vci: int) -> None:
        """Remove one connection from the GCU's table."""
        self.gcu.remove(in_port, vpi, vci)

    def counters(self) -> Dict[str, int]:
        """Management-plane counter snapshot — the level-agnostic
        surface the cross-level equivalence harness diffs."""
        return {
            "cells_received": self.cells_received,
            "cells_switched": self.cells_switched,
            "cells_dropped_unknown": self.cells_dropped_unknown,
            "cells_dropped_overflow": self.cells_dropped_overflow,
            "hec_errors": self.hec_errors,
            "idle_cells": self.idle_cells,
        }

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------
    def _accept_cell(self, index: int, state: _PortState) -> None:
        octets = state.rx_buffer
        self.cells_received += 1
        if (state.rx_crc ^ _COSET) != octets[4]:
            self.hec_errors += 1
            return
        vpi = ((octets[0] & 0xF) << 4) | ((octets[1] >> 4) & 0xF)
        vci = (((octets[1] & 0xF) << 12) | (octets[2] << 4)
               | ((octets[3] >> 4) & 0xF))
        if (vpi, vci) == (0, 0):
            self.idle_cells += 1
            return
        state.lookup_fifo.append(list(octets))

    def _forward(self, octets: List[int], out_port: int, out_vpi: int,
                 out_vci: int) -> None:
        target = self._ports[out_port]
        if len(target.tx_queue) >= self.queue_depth:
            self.cells_dropped_overflow += 1
            return
        header = [
            (octets[0] & 0xF0) | ((out_vpi >> 4) & 0xF),
            ((out_vpi & 0xF) << 4) | ((out_vci >> 12) & 0xF),
            (out_vci >> 4) & 0xFF,
            ((out_vci & 0xF) << 4) | (octets[3] & 0x0F),
        ]
        crc = 0
        for octet in header:
            crc = crc8_step(crc, octet)
        header.append(crc ^ _COSET)
        self.cells_switched += 1
        target.tx_queue.append(header + octets[5:])

    def _compile_seq(self, ctx):
        """The clocked process: per port, receive one octet, step the
        GCU lookup handshake and transmit one octet.  The GCU is a
        process of its own; the two exchange values through signals
        (the compiled kernel's commit phase, or the event kernel's
        delta cycles)."""
        rx_reads = [(ctx.read(rx.valid), ctx.read(rx.cellsync),
                     ctx.read(rx.atmdata)) for rx in self.rx_ports]
        cl_reads = [(ctx.read(c.done), ctx.read(c.found),
                     ctx.read(c.out_port), ctx.read(c.out_vpi),
                     ctx.read(c.out_vci)) for c in self.gcu.clients]
        cl_writes = [(ctx.write(c.req), ctx.write(c.vpi_in),
                      ctx.write(c.vci_in)) for c in self.gcu.clients]
        tx_writes = [(ctx.write(tx.atmdata), ctx.write(tx.cellsync),
                      ctx.write(tx.valid)) for tx in self.tx_ports]
        # One flat record per port, iterated directly — no per-edge
        # list indexing in the hot loop.
        lanes = [
            (index, state) + rx_reads[index] + cl_reads[index]
            + cl_writes[index] + tx_writes[index]
            for index, state in enumerate(self._ports)]
        accept = self._accept_cell
        forward = self._forward
        crc8 = crc8_step
        as_int = slot_int
        to_int = vector_to_int
        octets_per_cell = CELL_OCTETS

        def evaluate():
            for (index, state, valid, cellsync, atmdata,
                 done, found, out_port, out_vpi, out_vci,
                 w_req, w_vpi_in, w_vci_in,
                 w_atmdata, w_cellsync, w_valid) in lanes:
                # -- receive --------------------------------------
                if valid.value == "1":
                    raw = atmdata.value
                    octet = raw if type(raw) is int else to_int(raw)
                    if cellsync.value == "1":
                        state.rx_buffer = [octet]
                        state.rx_crc = crc8(0, octet)
                        filled = 1
                    else:
                        buffer = state.rx_buffer
                        if buffer:
                            buffer.append(octet)
                            filled = len(buffer)
                            if filled <= 4:
                                state.rx_crc = crc8(state.rx_crc,
                                                    octet)
                        else:
                            filled = 0
                    if filled == octets_per_cell:
                        accept(index, state)
                        state.rx_buffer = []
                # -- lookup ---------------------------------------
                if state.lookup_in_flight:
                    if done.value == "1":
                        w_req("0")
                        state.lookup_in_flight = False
                        octets = state.lookup_fifo.popleft()
                        if found.value != "1":
                            self.cells_dropped_unknown += 1
                        else:
                            forward(octets,
                                    as_int(out_port.value),
                                    as_int(out_vpi.value),
                                    as_int(out_vci.value))
                elif state.lookup_fifo:
                    head = state.lookup_fifo[0]
                    vpi = ((head[0] & 0xF) << 4) | ((head[1] >> 4)
                                                    & 0xF)
                    vci = (((head[1] & 0xF) << 12) | (head[2] << 4)
                           | ((head[3] >> 4) & 0xF))
                    w_vpi_in(vpi)
                    w_vci_in(vci)
                    w_req("1")
                    state.lookup_in_flight = True
                # -- transmit -------------------------------------
                queue = state.tx_queue
                if not queue:
                    if not state.tx_idle:
                        w_valid("0")
                        w_cellsync("0")
                        state.tx_idle = True
                else:
                    state.tx_idle = False
                    cell = queue[0]
                    offset = state.tx_offset
                    w_atmdata(cell[offset])
                    w_cellsync("1" if offset == 0 else "0")
                    w_valid("1")
                    offset += 1
                    if offset == octets_per_cell:
                        queue.popleft()
                        offset = 0
                    state.tx_offset = offset

        return evaluate

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def backlog(self) -> Dict[str, int]:
        """Cells queued inside the fabric (per stage)."""
        return {
            "awaiting_lookup": sum(len(p.lookup_fifo)
                                   for p in self._ports),
            "awaiting_tx": sum(len(p.tx_queue) for p in self._ports),
        }
