"""OPNET-equivalent discrete-event network simulator.

Provides the network / node / process modelling domains the paper's
co-verification environment is built on: an event-list kernel,
communicating extended FSM process models, intra-node modules and
packet streams, rate-limited links and statistic probes.
"""

from .events import Event, Interrupt, InterruptKind, SchedulingError
from .kernel import Kernel
from .links import LinkError, PointToPointLink
from .node import (Module, Node, ProcessorModule, QueueModule, SinkModule,
                   WiringError)
from .packet import Packet, PacketFormatError
from .process import FsmError, ProcessModel, State, Transition
from .statistics import Probe, summary
from .topology import Network

__all__ = [
    "Event", "Interrupt", "InterruptKind", "SchedulingError",
    "Kernel",
    "LinkError", "PointToPointLink",
    "Module", "Node", "ProcessorModule", "QueueModule", "SinkModule",
    "WiringError",
    "Packet", "PacketFormatError",
    "FsmError", "ProcessModel", "State", "Transition",
    "Probe", "summary",
    "Network",
]
