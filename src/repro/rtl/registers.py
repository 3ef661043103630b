"""Basic sequential building blocks: registers and counters."""

from __future__ import annotations

from typing import Optional

from ..hdl.compiled import raw_value
from ..hdl.signal import Signal
from ..hdl.simulator import Simulator
from .component import Component

__all__ = ["Register", "Counter"]


class Register(Component):
    """A clocked register with optional enable and synchronous reset.

    Ports:
        d (in), q (out) — data of ``width`` bits (scalar when ``None``).
        enable (in, optional) — q follows d only while '1'.
        reset (in, optional) — synchronous, loads ``reset_value``.
    """

    def __init__(self, sim: Simulator, name: str, clk: Signal, d: Signal,
                 enable: Optional[Signal] = None,
                 reset: Optional[Signal] = None,
                 reset_value=0) -> None:
        super().__init__(sim, name)
        self.d = d
        self.q = self.signal("q", width=d.width)
        self.enable = enable
        self.reset = reset
        self._reset_value = reset_value
        self.clocked(clk, self._compile_seq)

    def _compile_seq(self, ctx):
        """The clocked process: reset loads the reset value
        (pre-normalised to slot raw form once, here), else q follows
        d while enabled."""
        d = ctx.read(self.d)
        w_q = ctx.write(self.q)
        reset = (ctx.read(self.reset)
                 if self.reset is not None else None)
        enable = (ctx.read(self.enable)
                  if self.enable is not None else None)
        reset_raw = raw_value(self.q, self._reset_value)

        def evaluate():
            if reset is not None and reset.value == "1":
                w_q(reset_raw)
                return
            if enable is not None and enable.value != "1":
                return
            w_q(d.value)

        return evaluate


class Counter(Component):
    """A synchronous up-counter with enable and synchronous reset.

    Wraps at ``2**width``.  The count is visible on ``q``.
    """

    def __init__(self, sim: Simulator, name: str, clk: Signal, width: int,
                 enable: Optional[Signal] = None,
                 reset: Optional[Signal] = None) -> None:
        super().__init__(sim, name)
        if width < 1:
            raise ValueError(f"counter width must be >= 1, got {width}")
        self.width = width
        self.q = self.signal("q", width=width, init=0)
        self.enable = enable
        self.reset = reset
        self._count = 0
        self.clocked(clk, self._compile_seq)

    def _compile_seq(self, ctx):
        """The clocked process: reset clears, enable counts."""
        w_q = ctx.write(self.q)
        reset = (ctx.read(self.reset)
                 if self.reset is not None else None)
        enable = (ctx.read(self.enable)
                  if self.enable is not None else None)
        modulus = 1 << self.width

        def evaluate():
            if reset is not None and reset.value == "1":
                self._count = 0
            elif enable is None or enable.value == "1":
                self._count = (self._count + 1) % modulus
            else:
                return
            w_q(self._count)

        return evaluate
