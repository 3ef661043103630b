"""Node domain: modules, packet streams and node-level wiring.

The paper's node domain describes "each node's capability ... in terms
of processing, queueing and communication interfaces".  A
:class:`Node` therefore aggregates

* :class:`ProcessorModule` objects hosting extended-FSM process models,
* :class:`QueueModule` objects providing bounded FIFO queueing, and
* numbered *ports* through which links (the network domain) deliver and
  accept packets.

Packet streams between modules inside one node are instantaneous at the
abstraction level of the network simulator: a send schedules a STREAM
interrupt at the current time (plus an optional explicit delay).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .events import Interrupt, InterruptKind
from .kernel import Kernel
from .packet import Packet
from .process import ProcessModel

__all__ = ["Node", "Module", "ProcessorModule", "QueueModule",
           "SinkModule", "WiringError"]


class WiringError(Exception):
    """Raised on invalid stream/port wiring."""


class Module:
    """Base class for intra-node modules.

    A module owns numbered output streams; ``send`` routes a packet to
    whatever the stream is wired to (another module's input stream or a
    node port).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.node: Optional["Node"] = None
        #: output stream index -> delivery callable(packet)
        self._out_wiring: Dict[int, Callable[[Packet], None]] = {}
        #: statistics
        self.packets_in = 0
        self.packets_out = 0

    # -- wiring ----------------------------------------------------------
    def wire_output(self, stream: int,
                    deliver: Callable[[Packet], None]) -> None:
        """Connect output *stream* to a delivery callable."""
        if stream in self._out_wiring:
            raise WiringError(
                f"module {self.name!r} output stream {stream} already wired")
        self._out_wiring[stream] = deliver

    # -- data path ---------------------------------------------------------
    def send(self, packet: Packet, stream: int = 0,
             delay: float = 0.0) -> None:
        """Emit *packet* on output *stream* after *delay* (default now)."""
        try:
            deliver = self._out_wiring[stream]
        except KeyError:
            raise WiringError(
                f"module {self.name!r} output stream {stream} is unwired")
        self.packets_out += 1
        kernel = self._kernel()
        kernel.schedule_after(delay, lambda: deliver(packet))

    def receive(self, packet: Packet, stream: int) -> None:
        """Accept *packet* arriving on input *stream*.

        Subclasses override; the base class drops with an error.
        """
        raise WiringError(
            f"module {self.name!r} cannot receive packets")

    def on_simulation_start(self) -> None:
        """Hook invoked when the hosting node starts."""

    def _kernel(self) -> Kernel:
        if self.node is None:
            raise WiringError(f"module {self.name!r} not attached to a node")
        return self.node.kernel


class ProcessorModule(Module):
    """A module hosting an extended-FSM :class:`ProcessModel`.

    Packet arrivals become STREAM interrupts delivered to the process.
    """

    def __init__(self, name: str, process: ProcessModel) -> None:
        super().__init__(name)
        self.process = process
        process.module = self

    def receive(self, packet: Packet, stream: int) -> None:
        self.packets_in += 1
        self.process.deliver(Interrupt(kind=InterruptKind.STREAM,
                                       stream=stream, data=packet))

    def on_simulation_start(self) -> None:
        self.process.start()


class QueueModule(Module):
    """A bounded FIFO queue with an optional deterministic service time.

    With ``service_time`` set, the queue autonomously forwards packets on
    output stream 0, one every ``service_time`` time units (a simple
    single-server queue).  With ``service_time=None`` the queue is
    passive and a processor pops it explicitly via :meth:`pop`.

    Overflowing packets are counted in :attr:`dropped` and discarded —
    exactly the loss behaviour ATM switch buffers exhibit.
    """

    def __init__(self, name: str, capacity: Optional[int] = None,
                 service_time: Optional[float] = None) -> None:
        super().__init__(name)
        self.capacity = capacity
        self.service_time = service_time
        self._fifo: Deque[Packet] = deque()
        self._busy = False
        self.dropped = 0
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self._fifo)

    def receive(self, packet: Packet, stream: int) -> None:
        self.packets_in += 1
        if self.capacity is not None and len(self._fifo) >= self.capacity:
            self.dropped += 1
            return
        self._fifo.append(packet)
        self.max_occupancy = max(self.max_occupancy, len(self._fifo))
        if self.service_time is not None and not self._busy:
            self._start_service()

    def pop(self) -> Optional[Packet]:
        """Explicitly remove and return the head packet (or ``None``)."""
        if not self._fifo:
            return None
        return self._fifo.popleft()

    def _start_service(self) -> None:
        self._busy = True
        self._kernel().schedule_after(self.service_time, self._complete)

    def _complete(self) -> None:
        if self._fifo:
            self.send(self._fifo.popleft(), stream=0)
        if self._fifo:
            self._kernel().schedule_after(self.service_time, self._complete)
        else:
            self._busy = False


class SinkModule(Module):
    """Terminal module: records and destroys arriving packets.

    Args:
        name: module name.
        keep: retain arriving packets in :attr:`received`.
        on_packet: optional observer called as ``on_packet(time,
            packet)`` on every arrival — e.g. a provenance tracker's
            sink hook (:meth:`repro.obs.provenance.ProvenanceTracker.
            sink_hook`) closing a cell's causal journey.
    """

    def __init__(self, name: str, keep: bool = False,
                 on_packet: Optional[Callable[[float, Packet],
                                              None]] = None) -> None:
        super().__init__(name)
        self.keep = keep
        self.on_packet = on_packet
        self.received: List[Packet] = []
        self.last_arrival: Optional[float] = None

    def receive(self, packet: Packet, stream: int) -> None:
        """Count (and optionally record/observe) one arriving packet."""
        self.packets_in += 1
        self.last_arrival = self._kernel().now
        if self.keep:
            self.received.append(packet)
        if self.on_packet is not None:
            self.on_packet(self.last_arrival, packet)


class Node:
    """A network node: a named bag of modules plus numbered ports.

    Ports are the node's communication interfaces; links (see
    :mod:`repro.netsim.links`) bind to ports.  ``bind_port_input`` routes
    packets arriving from a link into a module input stream;
    ``bind_port_output`` lets a module output stream feed a link.
    """

    def __init__(self, name: str, kernel: Kernel) -> None:
        self.name = name
        self.kernel = kernel
        self.modules: Dict[str, Module] = {}
        #: port index -> (module, input stream)
        self._port_inputs: Dict[int, Tuple[Module, int]] = {}
        #: port index -> link transmit callable
        self._port_outputs: Dict[int, Callable[[Packet], None]] = {}

    # -- construction ------------------------------------------------------
    def add_module(self, module: Module) -> Module:
        if module.name in self.modules:
            raise WiringError(
                f"node {self.name!r} already has module {module.name!r}")
        module.node = self
        self.modules[module.name] = module
        return module

    def connect(self, src: Module, out_stream: int,
                dst: Module, in_stream: int) -> None:
        """Wire *src* output *out_stream* to *dst* input *in_stream*."""
        src.wire_output(out_stream,
                        lambda pkt: dst.receive(pkt, in_stream))

    def bind_port_input(self, port: int, module: Module,
                        in_stream: int) -> None:
        """Deliver packets arriving on node *port* to *module*."""
        if port in self._port_inputs:
            raise WiringError(f"node {self.name!r} port {port} already bound")
        self._port_inputs[port] = (module, in_stream)

    def bind_port_output(self, port: int, src: Module,
                         out_stream: int) -> None:
        """Feed *src* output *out_stream* out of node *port*."""
        src.wire_output(out_stream,
                        lambda pkt: self.transmit(pkt, port))

    # -- link-facing data path ----------------------------------------------
    def attach_link_tx(self, port: int,
                       transmit: Callable[[Packet], None]) -> None:
        """Called by a link to register its transmit entry for *port*."""
        if port in self._port_outputs:
            raise WiringError(
                f"node {self.name!r} port {port} already has a link")
        self._port_outputs[port] = transmit

    def has_link(self, port: int) -> bool:
        """True when a link is attached at node *port*."""
        return port in self._port_outputs

    def transmit(self, packet: Packet, port: int) -> None:
        """Hand *packet* to the link attached at *port*."""
        try:
            tx = self._port_outputs[port]
        except KeyError:
            raise WiringError(
                f"node {self.name!r} port {port} has no attached link")
        tx(packet)

    def deliver(self, packet: Packet, port: int) -> None:
        """Called by a link when *packet* arrives at node *port*."""
        try:
            module, stream = self._port_inputs[port]
        except KeyError:
            raise WiringError(
                f"node {self.name!r} port {port} input is unbound")
        module.receive(packet, stream)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Start every module (delivers BEGIN to process models)."""
        for module in self.modules.values():
            module.on_simulation_start()
