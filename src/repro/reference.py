"""Reference paths — test oracles, not production code.

The HDL side has one production path: the :class:`~repro.hdl.CycleEngine`
clock, compiled RTL processes and :class:`~repro.rtl.CellSender`'s bulk
waveform playback.  Each replaced a slower predecessor that it is
trace-identical to, and the equivalence suites keep proving that by
running the predecessor next to it.  The predecessors that need code of
their own live here; nothing else in ``repro`` imports this module.

* :class:`GeneratorCellSender` — the behavioural generator that drives
  one octet per clock, the oracle of ``CellSender``
  (``tests/rtl/test_bulk_equiv.py``).
* :class:`EventClockedEnvironment` — the co-verification environment on
  the kernel's event-driven generator clock (``Simulator.add_clock``),
  the oracle of the cycle engine at system level
  (``tests/core/test_determinism.py``).

The third oracle needs no code here: setting ``Simulator.rtl_backend =
"event"`` before building components runs each component's one compile
hook as a rising-edge process on the event kernel
(``tests/rtl/test_compiled_equiv.py``).  It checks the compiled kernel,
not the component logic; that is checked against the :mod:`repro.atm`
reference models and the :mod:`repro.behav` twins.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Sequence

from .core.environment import CoVerificationEnvironment
from .hdl.processes import RisingEdge
from .hdl.signal import Signal
from .hdl.simulator import Simulator
from .rtl.cell_stream import CELL_OCTETS, CellStreamPort
from .rtl.component import Component

__all__ = ["GeneratorCellSender", "EventClockedEnvironment"]


class GeneratorCellSender(Component):
    """Clocks queued cells onto a stream port, one process resumption
    and three ``drive()`` calls per octet.

    Same constructor, :meth:`send`, :attr:`backlog`, ``cells_sent`` and
    ``on_cell_sent`` as :class:`repro.rtl.CellSender`, and the same
    waveform on the port; it needs no registered clock geometry, only
    events on *clk*.
    """

    def __init__(self, sim: Simulator, name: str, clk: Signal,
                 port: Optional[CellStreamPort] = None,
                 gap_octets: int = 0) -> None:
        super().__init__(sim, name)
        self.port = port if port is not None else CellStreamPort(sim, name)
        self.gap_octets = gap_octets
        self._queue: Deque[Sequence[int]] = deque()
        self.cells_sent = 0
        self.on_cell_sent: Optional[Callable[[], None]] = None
        sim.add_generator(f"{name}.sender", self._run(clk))

    def send(self, octets: Sequence[int]) -> None:
        """Queue one cell (a 53-octet sequence) for transmission."""
        if len(octets) != CELL_OCTETS:
            raise ValueError(
                f"a cell is {CELL_OCTETS} octets, got {len(octets)}")
        self._queue.append(list(octets))

    @property
    def backlog(self) -> int:
        """Cells queued but not yet picked up for transmission."""
        return len(self._queue)

    def _run(self, clk: Signal):
        edge = RisingEdge(clk)
        queue = self._queue
        atmdata = self.port.atmdata
        cellsync = self.port.cellsync
        valid = self.port.valid
        while True:
            if not queue:
                valid.drive("0")
                cellsync.drive("0")
                yield edge
                continue
            octets = queue.popleft()
            # Drive one octet after each rising edge; the consumer
            # samples it on the following edge.
            for index, octet in enumerate(octets):
                atmdata.drive(octet)
                cellsync.drive("1" if index == 0 else "0")
                valid.drive("1")
                yield edge
            self.cells_sent += 1
            if self.on_cell_sent is not None:
                self.on_cell_sent()
            valid.drive("0")
            cellsync.drive("0")
            for _ in range(self.gap_octets):
                yield edge


class EventClockedEnvironment(CoVerificationEnvironment):
    """A :class:`~repro.core.CoVerificationEnvironment` whose DUT clock
    is the kernel's event-driven generator clock: every edge is a heap
    event and a process resumption.  Same arguments, same results."""

    def _start_clock(self) -> None:
        self.hdl.add_clock(self.clk,
                           period=self.timebase.clock_period_ticks)
