"""Component base class for RTL designs.

An RTL component owns hierarchically named signals and registers its
processes with the simulator — the Python equivalent of a VHDL
entity/architecture pair.  Synthesisable style is kept deliberately:
components expose port signals, and all state changes happen in
clocked processes.

Each process is described exactly once, by a compile hook (see
:mod:`repro.hdl.compiled`): a builder that declares its reads and
writes on a context and returns the per-edge evaluation.  Only the
context varies with where the process runs.  By default the hook is
bound into the clock's :class:`repro.hdl.CompiledKernel`.  With
``Simulator.rtl_backend = "event"``, or when the compile raises
:class:`repro.hdl.UnsupportedFeature` (counted on
``Simulator.compiled_fallbacks``), the same hook is built against a
:class:`repro.hdl.EventContext` and its evaluation runs as a genuine
rising-edge process on the event kernel.  ``self.backends`` maps each
registered process name to where it landed (``"compiled"`` or
``"event"``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..hdl.compiled import (CompileContext, EventContext,
                            UnsupportedFeature, compile_kernel)
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

    def clocked(self, clk: Signal,
                build: Callable[[CompileContext], Callable[[], None]],
                name: str = "seq") -> None:
        """Register the process described by *build* on the rising
        edges of *clk*.

        *build* is the compile hook: it receives a context, declares
        the process's inputs (``ctx.read``) and outputs (``ctx.write``)
        and returns the evaluation run once per rising edge — the shape
        of a ``process(clk)`` with ``rising_edge(clk)``.  See the
        module docstring for which context it receives.
        """
        label = f"{self.name}.{name}"
        sim = self.sim
        backend = sim.rtl_backend
        if backend not in ("compiled", "event"):
            raise ValueError(
                f"{label}: Simulator.rtl_backend must be 'compiled' or "
                f"'event', got {backend!r}")
        if backend == "compiled":
            try:
                kernel = compile_kernel(sim, clk)
                kernel.add_seq(label, build)
            except UnsupportedFeature:
                sim.compiled_fallbacks += 1
            else:
                kernel.components += 1
                self.backends[name] = "compiled"
                return
        self.backends[name] = "event"
        self._add_event_process(clk, label, build(EventContext()))

    def _add_event_process(self, clk: Signal, label: str,
                           evaluate: Callable[[], None]) -> None:
        """Host *evaluate* on the event kernel: a process woken by the
        rising edges of *clk* only (the guard skips the
        initialisation run)."""
        def proc(_sim: Simulator) -> None:
            if clk.rising():
                evaluate()

        self.sim.add_process(label, proc, sensitivity=[clk], edge="rise")
