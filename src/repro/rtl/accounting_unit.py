"""RTL ATM accounting unit — the paper's case-study DUT.

Consumes an octet-serial cell stream, extracts VPI/VCI/CLP from each
header, matches the connection against an internal table and counts
cells per connection.  A pulse on ``tariff_tick`` closes the tariff
interval: one charging record per table entry is pushed into an output
FIFO and streamed out as six 32-bit words per record
(vpi, vci, interval, cells_clp0, cells_clp1, charge_units).

The unit must match :class:`repro.atm.accounting.AccountingUnit`
word for word — that equivalence is what CASTANET's stream comparator
verifies in the case study (E5).  ``bug`` injects realistic RTL defects
so the benchmarks can demonstrate that the environment *catches*
divergences:

* ``"swap_clp"``    — CLP=1 cells counted as CLP=0,
* ``"charge_off_by_one"`` — charge one unit high on active intervals,
* ``"lost_tick"``   — every second tariff tick ignored.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..hdl.compiled import slot_int
from ..hdl.signal import Signal
from ..hdl.simulator import Simulator
from .cell_stream import CELL_OCTETS, CellStreamPort
from .component import Component

__all__ = ["AccountingUnitRtl", "RECORD_WORDS"]

#: 32-bit words per charging record on the output bus.
RECORD_WORDS = 6

_KNOWN_BUGS = ("swap_clp", "charge_off_by_one", "lost_tick")


@dataclass
class _Entry:
    vpi: int
    vci: int
    units_per_cell: int
    units_per_cell_clp1: int
    fixed_units: int
    cells_clp0: int = 0
    cells_clp1: int = 0


class AccountingUnitRtl(Component):
    """The RTL charging unit.

    Ports:
        rx — octet-serial cell stream (created when not given).
        tariff_tick — input; a '1' sampled on a rising clock edge
            closes the interval.
        rec_valid, rec_word[31:0] — record output bus, one word per
            clock while records drain.
    """

    def __init__(self, sim: Simulator, name: str, clk: Signal,
                 rx: Optional[CellStreamPort] = None,
                 table_size: int = 64,
                 bug: Optional[str] = None) -> None:
        super().__init__(sim, name)
        if bug is not None and bug not in _KNOWN_BUGS:
            raise ValueError(
                f"unknown bug {bug!r}; known: {_KNOWN_BUGS}")
        self.rx = rx if rx is not None else CellStreamPort(sim, f"{name}.rx")
        self.tariff_tick = self.signal("tariff_tick", init="0")
        self.rec_valid = self.signal("rec_valid", init="0")
        self.rec_word = self.signal("rec_word", width=32, init=0)
        self.table_size = table_size
        self.bug = bug
        self._entries: List[_Entry] = []
        self._index: Dict[Tuple[int, int], _Entry] = {}
        self._interval = 0
        self._octet_count = 0
        self._header: List[int] = []
        self._out_fifo: Deque[int] = deque()
        #: True once rec_valid has been driven '0' with an empty FIFO —
        #: the idle drive is issued once, not on every idle clock (the
        #: resolved waveform is identical; repeating the no-change
        #: drive costs a kernel delta round per clock)
        self._rec_idle = False
        self._tick_parity = 0
        self.cells_seen = 0
        self.unknown_cells = 0
        self.records_emitted = 0
        self.clocked(clk, self._compile_seq)

    # -- management plane ---------------------------------------------------
    def register(self, vpi: int, vci: int, units_per_cell: int = 1,
                 units_per_cell_clp1: int = 0,
                 fixed_units: int = 0) -> None:
        """Install a connection in the accounting table."""
        if len(self._entries) >= self.table_size:
            raise ValueError(
                f"accounting table full ({self.table_size} entries)")
        if (vpi, vci) in self._index:
            raise ValueError(f"connection ({vpi}, {vci}) already present")
        entry = _Entry(vpi=vpi, vci=vci, units_per_cell=units_per_cell,
                       units_per_cell_clp1=units_per_cell_clp1,
                       fixed_units=fixed_units)
        self._entries.append(entry)
        self._index[(vpi, vci)] = entry

    @property
    def interval(self) -> int:
        """Index of the currently open tariff interval."""
        return self._interval

    @property
    def connection_count(self) -> int:
        """Number of registered connections."""
        return len(self._entries)

    def interval_cells(self, vpi: int, vci: int) -> Tuple[int, int]:
        """(CLP0, CLP1) counts of the open interval (management read,
        mirrors the reference model's query)."""
        entry = self._index.get((vpi, vci))
        if entry is None:
            raise ValueError(f"connection ({vpi}, {vci}) not registered")
        return entry.cells_clp0, entry.cells_clp1

    @property
    def output_backlog_words(self) -> int:
        """Record words queued but not yet streamed out."""
        return len(self._out_fifo)

    def counters(self) -> Dict[str, int]:
        """Management-plane counter snapshot — the level-agnostic
        surface the cross-level equivalence harness diffs."""
        return {
            "cells_seen": self.cells_seen,
            "unknown_cells": self.unknown_cells,
            "records_emitted": self.records_emitted,
        }

    # -- fast path ------------------------------------------------------------
    def _close_interval(self) -> None:
        for entry in self._entries:
            charge = (entry.fixed_units
                      + entry.cells_clp0 * entry.units_per_cell
                      + entry.cells_clp1 * entry.units_per_cell_clp1)
            if (self.bug == "charge_off_by_one"
                    and (entry.cells_clp0 or entry.cells_clp1)):
                charge += 1
            self._out_fifo.extend([
                entry.vpi, entry.vci, self._interval,
                entry.cells_clp0, entry.cells_clp1, charge])
            entry.cells_clp0 = 0
            entry.cells_clp1 = 0
            self.records_emitted += 1
        self._interval += 1

    def _account_header(self) -> None:
        h = self._header
        vpi = ((h[0] & 0xF) << 4) | ((h[1] >> 4) & 0xF)
        vci = (((h[1] & 0xF) << 12) | (h[2] << 4) | ((h[3] >> 4) & 0xF))
        clp = h[3] & 1
        if (vpi, vci) == (0, 0):
            return  # idle cells are never charged
        self.cells_seen += 1
        entry = self._index.get((vpi, vci))
        if entry is None:
            self.unknown_cells += 1
            return
        if clp and self.bug != "swap_clp":
            entry.cells_clp1 += 1
        else:
            entry.cells_clp0 += 1

    def _compile_seq(self, ctx):
        """The clocked process: a sampled tariff tick closes the
        interval, a header octet feeds :meth:`_account_header`, and one
        queued record word streams out."""
        tariff_tick = ctx.read(self.tariff_tick)
        valid = ctx.read(self.rx.valid)
        cellsync = ctx.read(self.rx.cellsync)
        atmdata = ctx.read(self.rx.atmdata)
        w_rec_valid = ctx.write(self.rec_valid)
        w_rec_word = ctx.write(self.rec_word)
        fifo = self._out_fifo
        lost_tick = self.bug == "lost_tick"

        def evaluate():
            # tariff tick
            if tariff_tick.value == "1":
                if lost_tick:
                    self._tick_parity ^= 1
                    if self._tick_parity:
                        self._close_interval()
                else:
                    self._close_interval()
            # cell octet
            if valid.value == "1":
                octet = slot_int(atmdata.value)
                if cellsync.value == "1":
                    self._header = [octet]
                    self._octet_count = 1
                elif self._octet_count:
                    self._octet_count += 1
                    if self._octet_count <= 4:
                        self._header.append(octet)
                        if self._octet_count == 4:
                            self._account_header()
                    if self._octet_count == CELL_OCTETS:
                        self._octet_count = 0
            # record stream
            if fifo:
                self._rec_idle = False
                w_rec_word(fifo.popleft())
                w_rec_valid("1")
            elif not self._rec_idle:
                w_rec_valid("0")
                self._rec_idle = True

        return evaluate
