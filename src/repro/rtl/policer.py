"""RTL usage-parameter-control (UPC) policer.

ATM traffic management in dedicated hardware (the paper's motivation:
"the largest part of ATM traffic management ... in dedicated
hardware"): a per-connection GCRA implemented in integer clock-tick
arithmetic, policing an octet-serial cell stream.  Non-conforming
cells are either discarded or *tagged* (CLP set to 1, HEC
regenerated), the two standardised UPC actions.

The algorithmic reference is :class:`repro.atm.policing.
VirtualScheduling`; the co-verification tests replay the policer's
logged arrival clocks through the reference and demand identical
verdicts — the same methodology as the accounting case study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..hdl.compiled import slot_int
from ..hdl.signal import Signal
from ..hdl.simulator import Simulator
from .cell_stream import CELL_OCTETS, CellStreamPort
from .component import Component
from .hec_circuit import crc8_step

__all__ = ["UpcPolicerRtl", "PolicingDecision"]

_COSET = 0x55

_KNOWN_BUGS = ("ignore_cdv", "stale_tat")


@dataclass(frozen=True)
class PolicingDecision:
    """One logged policing decision."""

    clock: int
    vpi: int
    vci: int
    conforming: bool


@dataclass
class _GcraState:
    increment_clocks: int
    limit_clocks: int
    tat_clocks: int = 0


class UpcPolicerRtl(Component):
    """Per-connection GCRA policing of a cell stream.

    Args:
        sim, name, clk: as usual.
        rx: input cell stream (created when ``None``).
        tx: output cell stream (created when ``None``).
        action: ``"drop"`` discards non-conforming cells, ``"tag"``
            forwards them with CLP=1 (HEC regenerated).
        bug: optional injected defect (``"ignore_cdv"`` treats the
            CDV tolerance as zero; ``"stale_tat"`` updates the TAT one
            increment short).

    Cells on unregistered connections pass unpoliced (transparent UPC
    for unmanaged traffic), counted in :attr:`unpoliced_cells`.
    """

    def __init__(self, sim: Simulator, name: str, clk: Signal,
                 rx: Optional[CellStreamPort] = None,
                 tx: Optional[CellStreamPort] = None,
                 action: str = "drop",
                 bug: Optional[str] = None) -> None:
        super().__init__(sim, name)
        if action not in ("drop", "tag"):
            raise ValueError(f"unknown UPC action {action!r}")
        if bug is not None and bug not in _KNOWN_BUGS:
            raise ValueError(f"unknown bug {bug!r}; known: {_KNOWN_BUGS}")
        self.rx = rx if rx is not None else CellStreamPort(sim, f"{name}.rx")
        self.tx = tx if tx is not None else CellStreamPort(sim, f"{name}.tx")
        self.action = action
        self.bug = bug
        self._contracts: Dict[Tuple[int, int], _GcraState] = {}
        self._clock_count = 0
        self._rx_buffer: List[int] = []
        self._tx_queue: List[List[int]] = []
        self._tx_offset = 0
        self.decisions: List[PolicingDecision] = []
        self.cells_conforming = 0
        self.cells_non_conforming = 0
        self.unpoliced_cells = 0
        self.idle_cells = 0
        self.clocked(clk, self._compile_seq)

    # -- management plane ---------------------------------------------------
    def install_contract(self, vpi: int, vci: int,
                         increment_clocks: int,
                         limit_clocks: int = 0) -> None:
        """Install GCRA(T=increment, tau=limit) for a connection, in
        DUT clock cycles."""
        if increment_clocks < 1:
            raise ValueError("increment must be >= 1 clock")
        if limit_clocks < 0:
            raise ValueError("negative CDV tolerance")
        self._contracts[(vpi, vci)] = _GcraState(
            increment_clocks=increment_clocks, limit_clocks=limit_clocks)

    def remove_contract(self, vpi: int, vci: int) -> None:
        """Remove a connection's policing contract."""
        self._contracts.pop((vpi, vci), None)

    def counters(self) -> Dict[str, int]:
        """Management-plane counter snapshot — the level-agnostic
        surface the cross-level equivalence harness diffs."""
        return {
            "cells_conforming": self.cells_conforming,
            "cells_non_conforming": self.cells_non_conforming,
            "unpoliced_cells": self.unpoliced_cells,
            "idle_cells": self.idle_cells,
        }

    # -- fast path ------------------------------------------------------------
    def _police_cell(self, octets: List[int]) -> None:
        vpi = ((octets[0] & 0xF) << 4) | ((octets[1] >> 4) & 0xF)
        vci = (((octets[1] & 0xF) << 12) | (octets[2] << 4)
               | ((octets[3] >> 4) & 0xF))
        if (vpi, vci) == (0, 0):
            self.idle_cells += 1
            return
        state = self._contracts.get((vpi, vci))
        if state is None:
            self.unpoliced_cells += 1
            self._tx_queue.append(list(octets))
            return
        now = self._clock_count
        conforming = self._gcra_arrival(state, now)
        self.decisions.append(PolicingDecision(
            clock=now, vpi=vpi, vci=vci, conforming=conforming))
        if conforming:
            self.cells_conforming += 1
            self._tx_queue.append(list(octets))
            return
        self.cells_non_conforming += 1
        if self.action == "tag":
            tagged = list(octets)
            tagged[3] |= 0x01          # CLP := 1
            crc = 0
            for octet in tagged[:4]:
                crc = crc8_step(crc, octet)
            tagged[4] = crc ^ _COSET   # regenerate the HEC
            self._tx_queue.append(tagged)
        # "drop": the cell simply vanishes at the UPC point

    def _gcra_arrival(self, state: _GcraState, now: int) -> bool:
        """Integer-arithmetic GCRA, virtual scheduling formulation."""
        tat = state.tat_clocks
        if now > tat:
            tat = now
        limit = 0 if self.bug == "ignore_cdv" else state.limit_clocks
        if tat - now > limit:
            return False
        increment = state.increment_clocks
        if self.bug == "stale_tat":
            increment = max(1, increment - 1)
        state.tat_clocks = tat + increment
        return True

    def _compile_seq(self, ctx):
        """The clocked process: count the clock, collect one rx octet
        (a complete cell goes through :meth:`_police_cell`) and stream
        one tx octet."""
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
            self._clock_count += 1
            if valid.value == "1":
                octet = slot_int(atmdata.value)
                buffer = self._rx_buffer
                if cellsync.value == "1":
                    buffer = self._rx_buffer = [octet]
                elif buffer:
                    buffer.append(octet)
                else:
                    buffer = None
                if buffer is not None and len(buffer) == CELL_OCTETS:
                    self._police_cell(buffer)
                    self._rx_buffer = []
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
