"""Behavioural (cell-granularity) twins of the swappable RTL designs.

One twin per RTL DUT — port module, switch fabric, UPC policer,
accounting unit — each implementing the *algorithm* of its RTL
counterpart on whole :class:`~repro.atm.cell.AtmCell` objects in
netsim time.  No octet serialisation, no HDL kernel, no synchroniser:
a cell arrival is one Python call, outputs are emitted eagerly with
timestamps from the fixed latency model (:mod:`repro.behav.latency`).

The twins mirror the RTL bit for bit where the equivalence harness
compares:

* header translation preserves GFC/PT/CLP and rewrites VPI/VCI (the
  HEC is regenerated implicitly — cells re-serialise with a fresh
  HEC);
* the policer runs the identical integer-clock GCRA (including the
  injected ``ignore_cdv``/``stale_tat`` defects);
* the accounting unit emits charging records in **registration order**
  (as the RTL output FIFO does — not the reference model's sorted
  order) with the same ``swap_clp``/``charge_off_by_one``/
  ``lost_tick`` defect hooks;
* all management-plane APIs (:meth:`AtmPortModuleBehav.install`,
  :meth:`AtmSwitchBehav.install_connection`,
  :meth:`UpcPolicerBehav.install_contract`,
  :meth:`AccountingUnitBehav.register`) validate exactly like their
  RTL namesakes.

``hec_errors`` counters exist for interface parity but stay zero: a
cell-level model cannot represent header corruption (octet streams do
not exist at this level), which is precisely the fidelity the RTL
level adds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..atm.cell import AtmCell
from ..core.timebase import TimeBase
from ..rtl.policer import PolicingDecision
from .latency import SerialLine, hop_latency_seconds

__all__ = ["BehavioralTwin", "AtmPortModuleBehav", "AtmSwitchBehav",
           "UpcPolicerBehav", "AccountingUnitBehav"]

_ACCOUNTING_BUGS = ("swap_clp", "charge_off_by_one", "lost_tick")
_POLICER_BUGS = ("ignore_cdv", "stale_tat")

OutputCallback = Callable[[float, AtmCell], None]


class BehavioralTwin:
    """Base class of the behavioural twins.

    A twin is driven through :meth:`cell_arrival` (whole cells stamped
    with netsim seconds) and emits response cells through per-output
    callbacks registered with :meth:`bind_output` — typically by one
    :class:`~repro.behav.entity.BehavioralEntity` per output port.

    Args:
        name: instance name (diagnostics only).
        timebase: the clock/cell arithmetic shared with the RTL level.
    """

    def __init__(self, name: str, timebase: Optional[TimeBase] = None
                 ) -> None:
        self.name = name
        self.timebase = timebase if timebase is not None \
            else TimeBase.for_line_rate()
        self.cell_seconds = self.timebase.cell_time_seconds
        self._outputs: Dict[int, OutputCallback] = {}

    def bind_output(self, callback: OutputCallback,
                    port: int = 0) -> None:
        """Register the consumer of output *port*'s cell stream."""
        self._outputs[port] = callback

    def _emit(self, when: float, cell: AtmCell, port: int = 0) -> None:
        """Deliver one output cell to *port*'s consumer (dropped
        silently when nothing is bound — an unmonitored port)."""
        callback = self._outputs.get(port)
        if callback is not None:
            callback(when, cell)

    def cell_arrival(self, time: float, cell: AtmCell,
                     port: int = 0) -> float:
        """Process one cell arriving at netsim *time* on input *port*;
        returns the modelled ingress-completion time."""
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        """The twin's counter dict — same keys as the RTL
        counterpart's ``counters()`` (the shared contract surface the
        equivalence harness diffs)."""
        raise NotImplementedError


def _translate(cell: AtmCell, out_vpi: int, out_vci: int) -> AtmCell:
    """Header regeneration at cell level: VPI/VCI rewritten, GFC/PT/CLP
    and the payload preserved — exactly the RTL ``_forward`` image
    after octet re-parse (the fresh HEC is implicit)."""
    return AtmCell(gfc=cell.gfc, vpi=out_vpi, vci=out_vci, pt=cell.pt,
                   clp=cell.clp, payload=cell.payload,
                   trace_id=cell.trace_id)


class AtmPortModuleBehav(BehavioralTwin):
    """Behavioural twin of :class:`~repro.rtl.AtmPortModuleRtl`:
    VPI/VCI translation through a private connection RAM.

    Latency model: one cell time of ingress serialisation, one clock
    of pipeline (the RTL starts transmitting on the clock after the
    53rd octet), one cell time of egress serialisation.
    """

    def __init__(self, name: str, timebase: Optional[TimeBase] = None
                 ) -> None:
        super().__init__(name, timebase)
        self._table: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._rx_line = SerialLine()
        self._tx_line = SerialLine()
        self._pipeline_s = hop_latency_seconds(self.timebase, 1)
        self.cells_received = 0
        self.cells_translated = 0
        self.hec_errors = 0
        self.unknown_connections = 0
        self.idle_cells = 0

    def install(self, vpi: int, vci: int, out_vpi: int,
                out_vci: int) -> None:
        """Write one translation RAM entry (RTL-identical API)."""
        self._table[(vpi, vci)] = (out_vpi, out_vci)

    def remove(self, vpi: int, vci: int) -> None:
        """Clear one translation RAM entry."""
        self._table.pop((vpi, vci), None)

    def cell_arrival(self, time: float, cell: AtmCell,
                     port: int = 0) -> float:
        """Translate one cell; unknown connections and idle cells are
        counted and dropped like in the RTL fast path."""
        done = self._rx_line.occupy(time, self.cell_seconds)
        self.cells_received += 1
        if cell.is_idle:
            self.idle_cells += 1
            return done
        translation = self._table.get(cell.connection())
        if translation is None:
            self.unknown_connections += 1
            return done
        self.cells_translated += 1
        ready = done + self._pipeline_s
        out_done = self._tx_line.occupy(ready, self.cell_seconds)
        self._emit(out_done, _translate(cell, *translation))
        return done

    def counters(self) -> Dict[str, int]:
        """RTL-parity counter snapshot."""
        return {
            "cells_received": self.cells_received,
            "cells_translated": self.cells_translated,
            "hec_errors": self.hec_errors,
            "unknown_connections": self.unknown_connections,
            "idle_cells": self.idle_cells,
        }


class AtmSwitchBehav(BehavioralTwin):
    """Behavioural twin of :class:`~repro.rtl.AtmSwitchRtl`: N input
    ports routed through one shared connection table to N output
    ports.

    Latency model: per-input ingress serialisation, ``lookup_latency``
    clocks of pipeline (the GCU table walk), per-output egress
    serialisation.  An output whose modelled backlog reaches
    ``queue_depth`` cells drops the newcomer, mirroring the RTL's
    bounded transmit queues.
    """

    def __init__(self, name: str, timebase: Optional[TimeBase] = None,
                 num_ports: int = 4, lookup_latency: int = 4,
                 queue_depth: int = 16) -> None:
        super().__init__(name, timebase)
        if num_ports < 1:
            raise ValueError(f"need >= 1 port, got {num_ports}")
        if queue_depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.num_ports = num_ports
        self.queue_depth = queue_depth
        self._table: Dict[Tuple[int, int, int],
                          Tuple[int, int, int]] = {}
        self._rx_lines = [SerialLine() for _ in range(num_ports)]
        self._tx_lines = [SerialLine() for _ in range(num_ports)]
        self._pipeline_s = hop_latency_seconds(self.timebase,
                                               lookup_latency)
        self.cells_received = 0
        self.cells_switched = 0
        self.cells_dropped_unknown = 0
        self.cells_dropped_overflow = 0
        self.hec_errors = 0
        self.idle_cells = 0

    def install_connection(self, in_port: int, vpi: int, vci: int,
                           out_port: int, out_vpi: int,
                           out_vci: int) -> None:
        """Program one connection (RTL-identical API and validation)."""
        if not 0 <= out_port < self.num_ports:
            raise ValueError(f"output port {out_port} out of range")
        self._table[(in_port, vpi, vci)] = (out_port, out_vpi, out_vci)

    def remove_connection(self, in_port: int, vpi: int,
                          vci: int) -> None:
        """Remove one connection from the table."""
        self._table.pop((in_port, vpi, vci), None)

    def cell_arrival(self, time: float, cell: AtmCell,
                     port: int = 0) -> float:
        """Switch one cell from input *port*; unknown connections,
        idle cells and output overflow are counted like in the RTL."""
        done = self._rx_lines[port].occupy(time, self.cell_seconds)
        self.cells_received += 1
        if cell.is_idle:
            self.idle_cells += 1
            return done
        route = self._table.get((port, cell.vpi, cell.vci))
        if route is None:
            self.cells_dropped_unknown += 1
            return done
        out_port, out_vpi, out_vci = route
        ready = done + self._pipeline_s
        tx = self._tx_lines[out_port]
        if tx.backlog_cells(ready, self.cell_seconds) >= self.queue_depth:
            self.cells_dropped_overflow += 1
            return done
        self.cells_switched += 1
        out_done = tx.occupy(ready, self.cell_seconds)
        self._emit(out_done, _translate(cell, out_vpi, out_vci),
                   port=out_port)
        return done

    def backlog(self) -> Dict[str, int]:
        """Modelled in-fabric backlog (interface parity with the RTL's
        :meth:`~repro.rtl.AtmSwitchRtl.backlog`; a zero-delta model
        holds no cells between calls, so ``awaiting_lookup`` is 0)."""
        free = max(line.free_at for line in self._tx_lines)
        return {
            "awaiting_lookup": 0,
            "awaiting_tx": sum(
                line.backlog_cells(free, self.cell_seconds)
                for line in self._tx_lines),
        }

    def counters(self) -> Dict[str, int]:
        """RTL-parity counter snapshot."""
        return {
            "cells_received": self.cells_received,
            "cells_switched": self.cells_switched,
            "cells_dropped_unknown": self.cells_dropped_unknown,
            "cells_dropped_overflow": self.cells_dropped_overflow,
            "hec_errors": self.hec_errors,
            "idle_cells": self.idle_cells,
        }


@dataclass
class _GcraState:
    """Per-connection GCRA virtual-scheduling state (clock ticks)."""

    increment_clocks: int
    limit_clocks: int
    tat_clocks: int = 0


class UpcPolicerBehav(BehavioralTwin):
    """Behavioural twin of :class:`~repro.rtl.UpcPolicerRtl`:
    per-connection GCRA policing with the drop/tag actions.

    The GCRA is the identical integer-clock virtual-scheduling
    formulation (including the ``ignore_cdv``/``stale_tat`` defect
    hooks); a cell's arrival clock is its modelled ingress-completion
    time converted to whole DUT clocks.  Because the algorithm is
    shift-invariant in the absolute clock (only inter-arrival deltas
    reach the conformance test), verdicts match the RTL exactly for
    slot-aligned stimulus even though the absolute clock counts differ
    by the RTL's start-up offset — the equivalence harness therefore
    diffs ``(vpi, vci, conforming)`` sequences, not raw clocks.
    """

    def __init__(self, name: str, timebase: Optional[TimeBase] = None,
                 action: str = "drop",
                 bug: Optional[str] = None) -> None:
        super().__init__(name, timebase)
        if action not in ("drop", "tag"):
            raise ValueError(f"unknown UPC action {action!r}")
        if bug is not None and bug not in _POLICER_BUGS:
            raise ValueError(
                f"unknown bug {bug!r}; known: {_POLICER_BUGS}")
        self.action = action
        self.bug = bug
        self._contracts: Dict[Tuple[int, int], _GcraState] = {}
        self._rx_line = SerialLine()
        self._tx_line = SerialLine()
        self._pipeline_s = hop_latency_seconds(self.timebase, 1)
        self.decisions: List[PolicingDecision] = []
        self.cells_conforming = 0
        self.cells_non_conforming = 0
        self.unpoliced_cells = 0
        self.idle_cells = 0

    def install_contract(self, vpi: int, vci: int,
                         increment_clocks: int,
                         limit_clocks: int = 0) -> None:
        """Install GCRA(T=increment, tau=limit) in DUT clock cycles
        (RTL-identical API and validation)."""
        if increment_clocks < 1:
            raise ValueError("increment must be >= 1 clock")
        if limit_clocks < 0:
            raise ValueError("negative CDV tolerance")
        self._contracts[(vpi, vci)] = _GcraState(
            increment_clocks=increment_clocks,
            limit_clocks=limit_clocks)

    def remove_contract(self, vpi: int, vci: int) -> None:
        """Remove a connection's policing contract."""
        self._contracts.pop((vpi, vci), None)

    def cell_arrival(self, time: float, cell: AtmCell,
                     port: int = 0) -> float:
        """Police one cell: unmanaged connections pass transparently,
        non-conforming cells are dropped or tagged (CLP := 1)."""
        done = self._rx_line.occupy(time, self.cell_seconds)
        if cell.is_idle:
            self.idle_cells += 1
            return done
        state = self._contracts.get(cell.connection())
        if state is None:
            self.unpoliced_cells += 1
            self._forward(done, cell)
            return done
        now = self.timebase.ticks_to_clocks(self.timebase.to_ticks(done))
        conforming = self._gcra_arrival(state, now)
        self.decisions.append(PolicingDecision(
            clock=now, vpi=cell.vpi, vci=cell.vci,
            conforming=conforming))
        if conforming:
            self.cells_conforming += 1
            self._forward(done, cell)
            return done
        self.cells_non_conforming += 1
        if self.action == "tag":
            tagged = AtmCell(gfc=cell.gfc, vpi=cell.vpi, vci=cell.vci,
                             pt=cell.pt, clp=1, payload=cell.payload,
                             trace_id=cell.trace_id)
            self._forward(done, tagged)
        # "drop": the cell simply vanishes at the UPC point
        return done

    def _gcra_arrival(self, state: _GcraState, now: int) -> bool:
        """Integer-arithmetic GCRA, virtual scheduling formulation —
        line for line the RTL's ``_gcra_arrival``."""
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

    def _forward(self, done: float, cell: AtmCell) -> None:
        """Emit one passed cell after the pipeline + egress delays."""
        out_done = self._tx_line.occupy(done + self._pipeline_s,
                                        self.cell_seconds)
        self._emit(out_done, cell)

    def counters(self) -> Dict[str, int]:
        """RTL-parity counter snapshot."""
        return {
            "cells_conforming": self.cells_conforming,
            "cells_non_conforming": self.cells_non_conforming,
            "unpoliced_cells": self.unpoliced_cells,
            "idle_cells": self.idle_cells,
        }


@dataclass
class _Account:
    """One accounting-table entry with the open interval's counts."""

    vpi: int
    vci: int
    units_per_cell: int
    units_per_cell_clp1: int
    fixed_units: int
    cells_clp0: int = 0
    cells_clp1: int = 0


class AccountingUnitBehav(BehavioralTwin):
    """Behavioural twin of :class:`~repro.rtl.AccountingUnitRtl`: the
    paper's case-study charging unit, sink-only.

    Charging records accumulate in :attr:`records` as the same
    ``(vpi, vci, interval, cells_clp0, cells_clp1, charge)`` 6-tuples
    the RTL streams over its record bus — in **registration order**,
    which is the RTL FIFO order (the algorithmic reference model sorts
    instead).  The RTL's injected defects (``swap_clp``,
    ``charge_off_by_one``, ``lost_tick``) are replicated so the
    equivalence harness can verify that both levels diverge from the
    reference identically.
    """

    def __init__(self, name: str, timebase: Optional[TimeBase] = None,
                 table_size: int = 64,
                 bug: Optional[str] = None) -> None:
        super().__init__(name, timebase)
        if bug is not None and bug not in _ACCOUNTING_BUGS:
            raise ValueError(
                f"unknown bug {bug!r}; known: {_ACCOUNTING_BUGS}")
        self.table_size = table_size
        self.bug = bug
        self._entries: List[_Account] = []
        self._index: Dict[Tuple[int, int], _Account] = {}
        self._interval = 0
        self._tick_parity = 0
        self._rx_line = SerialLine()
        self.records: List[Tuple[int, ...]] = []
        self.cells_seen = 0
        self.unknown_cells = 0
        self.records_emitted = 0

    def register(self, vpi: int, vci: int, units_per_cell: int = 1,
                 units_per_cell_clp1: int = 0,
                 fixed_units: int = 0) -> None:
        """Install a connection (RTL-identical API and validation)."""
        if len(self._entries) >= self.table_size:
            raise ValueError(
                f"accounting table full ({self.table_size} entries)")
        if (vpi, vci) in self._index:
            raise ValueError(f"connection ({vpi}, {vci}) already present")
        entry = _Account(vpi=vpi, vci=vci,
                         units_per_cell=units_per_cell,
                         units_per_cell_clp1=units_per_cell_clp1,
                         fixed_units=fixed_units)
        self._entries.append(entry)
        self._index[(vpi, vci)] = entry

    @property
    def interval(self) -> int:
        """Index of the currently open tariff interval."""
        return self._interval

    def interval_cells(self, vpi: int, vci: int) -> Tuple[int, int]:
        """(CLP0, CLP1) counts of the open interval."""
        entry = self._index.get((vpi, vci))
        if entry is None:
            raise ValueError(f"connection ({vpi}, {vci}) not registered")
        return entry.cells_clp0, entry.cells_clp1

    def cell_arrival(self, time: float, cell: AtmCell,
                     port: int = 0) -> float:
        """Account one cell (idle cells are never charged)."""
        done = self._rx_line.occupy(time, self.cell_seconds)
        if cell.is_idle:
            return done
        self.cells_seen += 1
        entry = self._index.get(cell.connection())
        if entry is None:
            self.unknown_cells += 1
            return done
        if cell.clp and self.bug != "swap_clp":
            entry.cells_clp1 += 1
        else:
            entry.cells_clp0 += 1
        return done

    def tariff_tick(self, time: float) -> None:
        """Close the open tariff interval: one record per table entry
        in registration order (the ``lost_tick`` defect drops every
        second tick, like the RTL)."""
        if self.bug == "lost_tick":
            self._tick_parity ^= 1
            if self._tick_parity == 0:
                return
        for entry in self._entries:
            charge = (entry.fixed_units
                      + entry.cells_clp0 * entry.units_per_cell
                      + entry.cells_clp1 * entry.units_per_cell_clp1)
            if (self.bug == "charge_off_by_one"
                    and (entry.cells_clp0 or entry.cells_clp1)):
                charge += 1
            self.records.append((
                entry.vpi, entry.vci, self._interval,
                entry.cells_clp0, entry.cells_clp1, charge))
            entry.cells_clp0 = 0
            entry.cells_clp1 = 0
            self.records_emitted += 1
        self._interval += 1

    def counters(self) -> Dict[str, int]:
        """RTL-parity counter snapshot."""
        return {
            "cells_seen": self.cells_seen,
            "unknown_cells": self.unknown_cells,
            "records_emitted": self.records_emitted,
        }
