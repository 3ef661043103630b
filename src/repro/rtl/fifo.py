"""Synchronous show-ahead FIFO.

The cell buffer used by the RTL port module and accounting unit.
Show-ahead (first-word-fall-through) semantics: when not empty,
``rd_data`` already shows the head entry; asserting ``rd_en`` for one
clock pops it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from ..hdl.compiled import slot_int
from ..hdl.signal import Signal
from ..hdl.simulator import Simulator
from .component import Component

__all__ = ["SyncFifo"]


class SyncFifo(Component):
    """A clocked FIFO of ``depth`` words of ``width`` bits.

    Ports (all created by the component):
        wr_en, wr_data — write side, sampled on the rising clock edge.
        rd_en, rd_data — read side (show-ahead).
        empty, full    — status flags.

    A write to a full FIFO is dropped and counted in
    :attr:`overflow_drops` (the loss behaviour of an ATM buffer); a
    read from an empty FIFO is ignored.
    """

    def __init__(self, sim: Simulator, name: str, clk: Signal,
                 width: int, depth: int) -> None:
        super().__init__(sim, name)
        if depth < 1:
            raise ValueError(f"FIFO depth must be >= 1, got {depth}")
        self.width = width
        self.depth = depth
        self.wr_en = self.signal("wr_en", init="0")
        self.wr_data = self.signal("wr_data", width=width, init=0)
        self.rd_en = self.signal("rd_en", init="0")
        self.rd_data = self.signal("rd_data", width=width, init=0)
        self.empty = self.signal("empty", init="1")
        self.full = self.signal("full", init="0")
        self._store: Deque[int] = deque()
        self.overflow_drops = 0
        self.max_level = 0
        self.clocked(clk, self._compile_seq)

    def __len__(self) -> int:
        return len(self._store)

    def _compile_seq(self, ctx):
        """The clocked process: pop on ``rd_en``, push on ``wr_en``
        (dropped when full), then refresh the outputs."""
        wr_en = ctx.read(self.wr_en)
        wr_data = ctx.read(self.wr_data)
        rd_en = ctx.read(self.rd_en)
        w_rd_data = ctx.write(self.rd_data)
        w_empty = ctx.write(self.empty)
        w_full = ctx.write(self.full)
        store = self._store
        depth = self.depth

        def evaluate():
            popped = False
            if rd_en.value == "1" and store:
                store.popleft()
                popped = True
            writing = wr_en.value == "1"
            if writing:
                if len(store) >= depth:
                    self.overflow_drops += 1
                else:
                    store.append(slot_int(wr_data.value))
                    self.max_level = max(self.max_level, len(store))
            if popped or writing:
                if store:
                    w_rd_data(store[0])
                    w_empty("0")
                else:
                    w_empty("1")
                w_full("1" if len(store) >= depth else "0")

        return evaluate
