"""RTL ATM switch port module.

The hardware fast path of one switch port: receives an octet-serial
cell stream, checks the HEC, extracts VPI/VCI, translates them through
a small connection RAM, regenerates the header (with fresh HEC) and
streams the cell out again.  Cells failing the HEC or missing from the
table are discarded (and counted).

The translation RAM is written through a management interface
(:meth:`install`), modelling the configuration writes the global
control unit performs — the paper's split between fast-path port
modules and the control unit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..hdl.compiled import slot_int
from ..hdl.signal import Signal
from ..hdl.simulator import Simulator
from .cell_stream import CELL_OCTETS, CellStreamPort
from .component import Component
from .hec_circuit import crc8_step

__all__ = ["AtmPortModuleRtl"]

_COSET = 0x55


class AtmPortModuleRtl(Component):
    """One RTL port module: HEC check + VPI/VCI translation.

    Pipeline: the 53 octets of a cell are collected (53 clocks); on the
    clock after the last octet the translated cell starts streaming out
    of ``tx`` (one octet per clock), so a cell experiences a fixed
    pipeline latency of one cell time plus one clock.

    Args:
        sim, name, clk: as usual.
        rx: input stream port (created when ``None``).
        tx: output stream port (created when ``None``).
    """

    def __init__(self, sim: Simulator, name: str, clk: Signal,
                 rx: Optional[CellStreamPort] = None,
                 tx: Optional[CellStreamPort] = None) -> None:
        super().__init__(sim, name)
        self.rx = rx if rx is not None else CellStreamPort(sim, f"{name}.rx")
        self.tx = tx if tx is not None else CellStreamPort(sim, f"{name}.tx")
        #: (vpi, vci) -> (out_vpi, out_vci); the translation RAM.
        self._table: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._rx_buffer: List[int] = []
        self._rx_crc = 0
        self._tx_queue: List[List[int]] = []
        self._tx_offset = 0
        self.cells_received = 0
        self.cells_translated = 0
        self.hec_errors = 0
        self.unknown_connections = 0
        self.idle_cells = 0
        self.clocked(clk, self._compile_seq)

    # -- management plane ---------------------------------------------------
    def install(self, vpi: int, vci: int, out_vpi: int,
                out_vci: int) -> None:
        """Write one translation RAM entry."""
        self._table[(vpi, vci)] = (out_vpi, out_vci)

    def remove(self, vpi: int, vci: int) -> None:
        """Clear one translation RAM entry."""
        self._table.pop((vpi, vci), None)

    def counters(self) -> Dict[str, int]:
        """Management-plane counter snapshot — the level-agnostic
        surface the cross-level equivalence harness diffs."""
        return {
            "cells_received": self.cells_received,
            "cells_translated": self.cells_translated,
            "hec_errors": self.hec_errors,
            "unknown_connections": self.unknown_connections,
            "idle_cells": self.idle_cells,
        }

    # -- fast path ------------------------------------------------------------
    def _complete_cell(self, octets: List[int]) -> None:
        self.cells_received += 1
        if (self._rx_crc ^ _COSET) != octets[4]:
            self.hec_errors += 1
            return
        vpi = ((octets[0] & 0xF) << 4) | ((octets[1] >> 4) & 0xF)
        vci = (((octets[1] & 0xF) << 12) | (octets[2] << 4)
               | ((octets[3] >> 4) & 0xF))
        if (vpi, vci) == (0, 0):
            self.idle_cells += 1
            return
        translation = self._table.get((vpi, vci))
        if translation is None:
            self.unknown_connections += 1
            return
        out_vpi, out_vci = translation
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
        self.cells_translated += 1
        self._tx_queue.append(header + octets[5:])

    def _compile_seq(self, ctx):
        """The clocked process: collect one rx octet (a complete cell
        goes through :meth:`_complete_cell`) and stream one tx octet."""
        valid = ctx.read(self.rx.valid)
        cellsync = ctx.read(self.rx.cellsync)
        atmdata = ctx.read(self.rx.atmdata)
        w_atmdata = ctx.write(self.tx.atmdata)
        w_cellsync = ctx.write(self.tx.cellsync)
        w_valid = ctx.write(self.tx.valid)
        queue = self._tx_queue
        #: idle levels already driven -> skip the per-edge '0' writes
        self._tx_idle = False

        def evaluate():
            # receive
            if valid.value == "1":
                octet = slot_int(atmdata.value)
                buffer = self._rx_buffer
                if cellsync.value == "1":
                    buffer = self._rx_buffer = [octet]
                    self._rx_crc = crc8_step(0, octet)
                elif buffer:
                    buffer.append(octet)
                    if len(buffer) <= 4:
                        self._rx_crc = crc8_step(self._rx_crc, octet)
                else:
                    buffer = None
                if buffer is not None and len(buffer) == CELL_OCTETS:
                    self._complete_cell(buffer)
                    self._rx_buffer = []
            # transmit
            if not queue:
                if not self._tx_idle:
                    w_valid("0")
                    w_cellsync("0")
                    self._tx_idle = True
            else:
                self._tx_idle = False
                cell = queue[0]
                offset = self._tx_offset
                w_atmdata(cell[offset])
                w_cellsync("1" if offset == 0 else "0")
                w_valid("1")
                offset += 1
                if offset == CELL_OCTETS:
                    queue.pop(0)
                    offset = 0
                self._tx_offset = offset

        return evaluate
