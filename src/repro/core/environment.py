"""The co-verification environment façade (Figure 1).

:class:`CoVerificationEnvironment` wires the three worlds together:

* the **network simulator** (``env.network``) where traffic models and
  the algorithm reference model live;
* the **HDL simulator** (``env.hdl``) hosting RTL DUTs, coupled through
  :class:`~repro.core.cosim.CosimulationEntity` objects with the
  conservative synchronisation protocol;
* optionally the **hardware test board** through
  :class:`~repro.core.board_interface.BoardInterfaceModel`.

:class:`TapModule` is the OPNET-side CASTANET interface process: a
netsim module that observes the packet stream at some point of the
topology, hands each packet to the reference model *and* to the
coupled DUT(s), and (optionally) forwards it unchanged.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..hdl.cycle import CycleEngine
from ..hdl.simulator import Simulator
from ..netsim.node import Module
from ..netsim.packet import Packet
from ..netsim.topology import Network
from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..obs.provenance import ProvenanceTracker
from ..obs.trace import TraceWriter
from ..rtl.cell_stream import CellStreamPort
from .board_interface import BoardInterfaceModel
from .comparison import StreamComparator, VerificationReport
from .contract import DUT_LEVELS, DutContract, resolve_level
from .cosim import CosimulationEntity
from .timebase import TimeBase

__all__ = ["CoVerificationEnvironment", "TapModule"]

PacketHook = Callable[[float, Packet], None]


class TapModule(Module):
    """Observes packets at a point in the network model.

    Every received packet is timestamped with the current simulated
    time and delivered to each registered hook; with ``forward=True``
    the packet then continues on output stream 0 (transparent tap),
    otherwise the tap terminates the stream.
    """

    def __init__(self, name: str, forward: bool = True) -> None:
        super().__init__(name)
        self.forward = forward
        self.hooks: List[PacketHook] = []

    def add_hook(self, hook: PacketHook) -> None:
        """Register an observer called as ``hook(time, packet)``."""
        self.hooks.append(hook)

    def receive(self, packet: Packet, stream: int) -> None:
        """Deliver *packet* to every hook, then forward it if transparent."""
        self.packets_in += 1
        now = self._kernel().now
        for hook in self.hooks:
            hook(now, packet)
        if self.forward:
            self.send(packet, stream=0)


class CoVerificationEnvironment:
    """One instance of the Figure-1 environment.

    Example (sketch)::

        env = CoVerificationEnvironment()
        node = env.network.add_node("source")
        ...                        # build the network model
        rx = CellStreamPort(env.hdl, "dut.rx")
        dut = AccountingUnitRtl(env.hdl, "dut", env.clk, rx=rx)
        entity = env.add_dut(rx_port=rx, tick_signal=dut.tariff_tick)
        tap = env.make_cell_tap("tap", entity)
        ...                        # insert the tap into the topology
        env.run(until=0.01)
        env.finish()
    """

    def __init__(self, name: str = "castanet",
                 timebase: Optional[TimeBase] = None,
                 lockstep: bool = False,
                 observe: bool = True,
                 trace: Optional[Union[str, Path,
                                       TraceWriter]] = None,
                 provenance_sample: Optional[int] = 1,
                 dut_level: Optional[str] = None) -> None:
        self.name = name
        # Default abstraction level for swappable DUTs built on this
        # environment ("rtl" | "behav" | "auto"); ``None`` defers to
        # the REPRO_DUT_LEVEL environment variable, itself defaulting
        # to "auto" (which resolves to "rtl" — the seed behaviour).
        if dut_level is None:
            dut_level = os.environ.get("REPRO_DUT_LEVEL", "auto")
        if dut_level not in DUT_LEVELS + ("auto",):
            raise ValueError(
                f"dut_level must be one of {', '.join(DUT_LEVELS)} or "
                f"'auto', got {dut_level!r}")
        self.dut_level = dut_level
        # Observability: the registry collects lag/queue-wait/latency
        # histograms from the synchronisers and entities; *trace* (a
        # path or a TraceWriter) additionally streams every
        # co-simulation decision as JSON lines.  ``observe=False``
        # installs the shared null registry — instrumented sites then
        # cost one attribute check each, nothing is recorded.
        self.metrics_registry = MetricsRegistry() if observe \
            else NULL_REGISTRY
        if trace is not None and not isinstance(trace, TraceWriter):
            trace = TraceWriter(trace)
        self.trace: Optional[TraceWriter] = trace
        # Cell provenance: 1-in-N causal tracing of cell journeys
        # across the abstraction interface.  Active whenever there is
        # a consumer (the registry or a trace sink); ``None``/0
        # disables it outright.
        self.provenance: Optional[ProvenanceTracker] = None
        if provenance_sample and (observe or trace is not None):
            self.provenance = ProvenanceTracker(
                metrics=self.metrics_registry, trace=trace,
                sample=provenance_sample)
        self.timebase = timebase if timebase is not None \
            else TimeBase.for_line_rate()
        self.network = Network(f"{name}.net")
        self.hdl = Simulator(time_unit=self.timebase.tick_seconds)
        self.clk = self.hdl.signal("clk", init="0")
        self.clock_engine = self._start_clock()
        self.lockstep = lockstep
        self.entities: List[DutContract] = []
        self.board_interfaces: List[BoardInterfaceModel] = []
        self.comparators: List[StreamComparator] = []
        self._finished = False
        self.network.kernel.time_listeners.append(self._on_netsim_time)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _start_clock(self) -> Optional[CycleEngine]:
        """Put the DUT clock on ``self.clk``: a :class:`CycleEngine`,
        which applies clock edges by direct dispatch with no
        heap/resume traffic.  (``repro.reference`` overrides this with
        the kernel's event-driven generator clock, the oracle the
        engine is trace-identical to.)"""
        return CycleEngine(self.hdl, self.clk,
                           period=self.timebase.clock_period_ticks)

    def resolved_dut_level(self, level: Optional[str] = None) -> str:
        """Resolve a per-DUT *level* override against this
        environment's ``dut_level`` policy (see
        :func:`~repro.core.contract.resolve_level`)."""
        return resolve_level(level, default=self.dut_level)

    def add_dut(self, rx_port: Optional[CellStreamPort] = None,
                tx_port: Optional[CellStreamPort] = None,
                tick_signal=None,
                deltas: Optional[Dict[str, int]] = None,
                *, level: Optional[str] = None,
                behav=None, behav_port: int = 0) -> DutContract:
        """Couple a DUT into the environment at either abstraction
        level.

        RTL form (the seed API, unchanged): pass the HDL-side ports —
        ``rx_port`` and optionally ``tx_port``/``tick_signal``/
        ``deltas`` — and a :class:`CosimulationEntity` with its own
        synchroniser is created.

        Behavioural form: pass ``behav=`` (a twin from
        :mod:`repro.behav.twins`, plus ``behav_port`` for multi-port
        twins) and a :class:`~repro.behav.entity.BehavioralEntity` is
        created — no HDL kernel or synchroniser involvement.

        *level* is a consistency assertion, not a selector: the form of
        the call already fixes the level, so an explicit *level*
        contradicting it raises.  (The environment's ``dut_level``
        policy influences *builders* — see
        :func:`repro.behav.factory.build_dut` — not direct couplings,
        so existing RTL call sites keep working under
        ``REPRO_DUT_LEVEL=behav``.)
        """
        if behav is not None:
            if resolve_level(level, default="behav") != "behav":
                raise ValueError(
                    f"level={level!r} contradicts the behavioural twin "
                    "passed via behav=")
            if (rx_port is not None or tx_port is not None
                    or tick_signal is not None):
                raise ValueError(
                    "behavioural DUTs take no HDL ports; drop "
                    "rx_port/tx_port/tick_signal or couple at "
                    "level='rtl'")
            from ..behav.entity import BehavioralEntity
            entity: DutContract = BehavioralEntity(
                behav, timebase=self.timebase, port=behav_port,
                metrics=self.metrics_registry, trace=self.trace,
                provenance=self.provenance)
            self.entities.append(entity)
            return entity
        if rx_port is None:
            raise TypeError(
                "add_dut requires rx_port for an RTL DUT (or behav= "
                "for a behavioural twin)")
        if resolve_level(level, default="rtl") != "rtl":
            raise ValueError(
                "level='behav' requires a behavioural twin — pass "
                "behav=<twin> instead of HDL ports")
        entity = CosimulationEntity(self.hdl, self.clk, self.timebase,
                                    rx_port=rx_port, tx_port=tx_port,
                                    tick_signal=tick_signal,
                                    deltas=deltas, lockstep=self.lockstep,
                                    metrics=self.metrics_registry,
                                    trace=self.trace,
                                    provenance=self.provenance)
        self.entities.append(entity)
        return entity

    def add_board_interface(self,
                            interface: BoardInterfaceModel) -> None:
        """Register a hardware-in-the-loop path (its cells come from
        taps, like any DUT's)."""
        self.board_interfaces.append(interface)

    def make_cell_tap(self, name: str,
                      *entities: DutContract,
                      forward: bool = True) -> TapModule:
        """Create a tap that feeds every given DUT entity (add it to a
        node and wire it into the topology yourself)."""
        tap = TapModule(name, forward=forward)
        for entity in entities:
            tap.add_hook(lambda t, pkt, e=entity: e.send_cell(t, pkt))
        return tap

    def comparator(self, name: str, **kwargs) -> StreamComparator:
        """Create and register a stream comparator."""
        comp = StreamComparator(name, **kwargs)
        self.comparators.append(comp)
        return comp

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run the network simulation; coupled DUTs follow along via
        the synchronisation protocol."""
        with self.metrics_registry.timer("env.run_wall_s"):
            return self.network.run(until=until, max_events=max_events)

    def finish(self) -> None:
        """Drain every coupled simulator and board interface.

        The done-latch is set only after every entity drained and
        every board interface flushed: a raising entity used to latch
        ``_finished`` on the way in, so the retry after a fixed cause
        silently skipped the drain and returned truncated outputs.
        The trace sink is closed in a ``finally`` either way — on
        failure the records emitted so far are exactly the evidence
        needed to debug it.
        """
        if self._finished:
            return
        horizon = self.network.kernel.now
        try:
            with self.metrics_registry.timer("env.finish_wall_s"):
                for entity in self.entities:
                    entity.finish(horizon)
                for interface in self.board_interfaces:
                    interface.flush()
            self._finished = True
        finally:
            if self.trace is not None:
                self.trace.close()

    def close(self) -> None:
        """Close the trace sink unconditionally (idempotent).

        Unlike :meth:`finish` this never advances a simulator, so it is
        safe to call after a failed run — the trace records emitted so
        far are flushed instead of lost.
        """
        if self.trace is not None:
            self.trace.close()

    def __enter__(self) -> "CoVerificationEnvironment":
        """Enter a managed environment (``with CoVerification…() as env``)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Finish on clean exit; always close the trace sink.

        When the body raised, the simulators may be in an inconsistent
        state, so only the trace is flushed/closed — the partial record
        stream is exactly the evidence needed to debug the failure.
        """
        if exc_type is None:
            self.finish()
        self.close()

    def reports(self) -> List[VerificationReport]:
        """Compare every registered comparator and collect reports."""
        return [comp.compare() for comp in self.comparators]

    def all_passed(self) -> bool:
        """True when every comparator's report passes."""
        return all(report.passed for report in self.reports())

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, object]:
        """One machine-readable snapshot of the whole environment:
        kernel counters of both simulators, per-entity synchronisation
        statistics, board-interface totals and every registry
        instrument (lag/queue-wait/latency histograms, span timers).

        The metric names and trace schema are documented in DESIGN.md
        §"Observability"."""
        snapshot: Dict[str, object] = {
            "name": self.name,
            "lockstep": self.lockstep,
            "hdl_kernel": self.hdl.stats_snapshot(),
            "netsim_kernel": self.network.kernel.stats_snapshot(),
            "entities": [entity.snapshot()
                         for entity in self.entities],
            "board_interfaces": [
                interface.stats_snapshot()
                for interface in self.board_interfaces
            ],
        }
        if self.clock_engine is not None:
            snapshot["clock_engine"] = self.clock_engine.stats_snapshot()
        if self.metrics_registry.enabled:
            snapshot["instruments"] = self.metrics_registry.snapshot()
        if self.provenance is not None:
            snapshot["provenance"] = self.provenance.stats_snapshot()
        if self.trace is not None:
            snapshot["trace_records"] = self.trace.emitted
        return snapshot

    def export_metrics(self, path: Union[str, Path]) -> Path:
        """Write :meth:`metrics` as indented JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.metrics(), indent=2,
                                   sort_keys=True) + "\n")
        return path

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _on_netsim_time(self, time: float) -> None:
        # Null messages: every netsim time advance announces the new
        # originator time to all coupled simulators.
        for entity in self.entities:
            entity.advance_time(time)
