"""Component base class for RTL designs.

An RTL component owns hierarchically named signals and registers its
processes with the simulator — the Python equivalent of a VHDL
entity/architecture pair.  Synthesisable style is kept deliberately:
components expose port signals, all state changes happen in clocked
processes, and combinational outputs are driven with zero (delta)
delay.

A process that provides a compile hook is levelized into the clock's
:class:`repro.hdl.CompiledKernel`; without a hook, or when the compile
raises :class:`repro.hdl.UnsupportedFeature` (counted on
``Simulator.compiled_fallbacks``), its event body runs on the event
kernel instead.  ``self.backends`` maps each registered process name to
where it landed (``"compiled"`` or ``"event"``).  The event bodies are
also the oracle the compiled twins are tested against: a test sets
``Simulator.rtl_backend = "event"`` before building its components to
keep every process on the event kernel.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from ..hdl.compiled import (CompileContext, UnsupportedFeature,
                            compile_kernel)
from ..hdl.signal import Signal
from ..hdl.simulator import Simulator

__all__ = ["Component"]


class Component:
    """Base class: named signal factory + clocked-process helper."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        #: process name -> where it landed ("compiled" | "event")
        self.backends: Dict[str, str] = {}

    def signal(self, local_name: str, width: Optional[int] = None,
               init=None) -> Signal:
        """Create a signal named ``<component>.<local_name>``."""
        return self.sim.signal(f"{self.name}.{local_name}", width=width,
                               init=init)

    def _register_compiled(self, clk: Signal, name: str,
                           compile_fn: Optional[Callable],
                           kind: str) -> bool:
        """Try to land process *name* on the compiled kernel of *clk*.

        Returns True on success, False when the event kernel should
        host it instead: no hook, a compile that raised
        :class:`~repro.hdl.UnsupportedFeature` (counted as a fallback),
        or a simulator whose ``rtl_backend`` is ``"event"``.
        """
        label = f"{self.name}.{name}"
        backend = self.sim.rtl_backend
        if backend not in ("compiled", "event"):
            raise ValueError(
                f"{label}: Simulator.rtl_backend must be 'compiled' or "
                f"'event', got {backend!r}")
        if backend == "event" or compile_fn is None:
            return False
        try:
            kernel = compile_kernel(self.sim, clk)
            if kind == "seq":
                kernel.add_seq(label, compile_fn)
            else:
                kernel.add_comb(label, compile_fn)
        except UnsupportedFeature:
            self.sim.compiled_fallbacks += 1
            return False
        kernel.components += 1
        return True

    def clocked(self, clk: Signal, body: Callable[[], None],
                name: str = "seq",
                compile_fn: Optional[Callable[[CompileContext],
                                              Callable[[], None]]] = None
                ) -> None:
        """Register *body* to run on every rising edge of *clk*.

        The body reads ``.value`` of its inputs and drives outputs —
        the shape of a ``process(clk)`` with ``rising_edge(clk)``.
        Registered with rising-edge sensitivity, so the falling edge
        does not dispatch the process at all; the guard stays as a
        belt-and-braces check for the initialisation run.

        *compile_fn* is the optional compiled twin: a builder that
        receives a :class:`repro.hdl.CompileContext` and returns the
        levelized evaluation callable (see the module docstring for
        when *body* runs instead).
        """
        if self._register_compiled(clk, name, compile_fn, "seq"):
            self.backends[name] = "compiled"
            return
        self.backends[name] = "event"

        def proc(_sim: Simulator) -> None:
            if clk.rising():
                body()

        self.sim.add_process(f"{self.name}.{name}", proc,
                             sensitivity=[clk], edge="rise")

    def combinational(self, inputs: Sequence[Signal],
                      body: Callable[[], None],
                      name: str = "comb",
                      clk: Optional[Signal] = None,
                      compile_fn: Optional[Callable[[CompileContext],
                                                    Callable[[], None]]]
                      = None) -> None:
        """Register *body* to run on any event of *inputs* (and once at
        initialisation), like a combinational VHDL process.

        When *clk* and *compile_fn* are given, the process is
        levelized into *clk*'s kernel instead (inputs must
        be written inside the same kernel; see
        :meth:`repro.hdl.CompiledKernel.add_comb`).
        """
        if clk is not None and self._register_compiled(
                clk, name, compile_fn, "comb"):
            self.backends[name] = "compiled"
            return
        self.backends[name] = "event"
        self.sim.add_process(f"{self.name}.{name}",
                             lambda _sim: body(), sensitivity=list(inputs))
