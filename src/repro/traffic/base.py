"""Traffic source infrastructure.

The paper stresses that "effective traffic modeling for system analysis
has become crucial" and that CASTANET reuses the network simulator's
"library of traffic models" as hardware stimuli.  This module provides
the common machinery: an *arrival process* yields inter-arrival times,
and a :class:`TrafficSource` module turns them into packets injected
into a network model.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional, TYPE_CHECKING

from ..netsim.node import Module
from ..netsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.provenance import ProvenanceTracker

__all__ = ["ArrivalProcess", "TrafficSource"]


class ArrivalProcess(abc.ABC):
    """Generates successive inter-arrival times (seconds).

    Implementations must be deterministic for a fixed seed so that a
    test bench replayed against the RTL model and the hardware board
    sees identical stimuli — the reuse property the paper's environment
    depends on.
    """

    @abc.abstractmethod
    def next_interarrival(self) -> float:
        """Return the time until the next arrival (>= 0)."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Rewind the process to its initial (seeded) state."""


class TrafficSource(Module):
    """A node module emitting packets according to an arrival process.

    Args:
        name: module name.
        arrivals: the inter-arrival time generator.
        packet_factory: called with the arrival index, returns the
            packet to emit (default: an empty 424-bit ATM-cell-sized
            packet).
        count: stop after this many packets (``None`` = unbounded).
        tracker: optional provenance tracker
            (:class:`repro.obs.provenance.ProvenanceTracker`); every
            emitted packet then receives a monotone trace id and a
            ``source`` hop span — the origin of its causal journey.

    The source wires its packets out of output stream 0.
    """

    def __init__(self, name: str, arrivals: ArrivalProcess,
                 packet_factory: Optional[Callable[[int], Packet]] = None,
                 count: Optional[int] = None,
                 tracker: Optional["ProvenanceTracker"] = None) -> None:
        super().__init__(name)
        self.arrivals = arrivals
        self.packet_factory = packet_factory or self._default_factory
        self.count = count
        self.tracker = tracker
        self.emitted = 0

    @staticmethod
    def _default_factory(index: int) -> Packet:
        return Packet(size_bits=424, fields={"seq": index})

    def on_simulation_start(self) -> None:
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self.count is not None and self.emitted >= self.count:
            return
        delay = self.arrivals.next_interarrival()
        self._kernel().schedule_after(delay, self._emit)

    def _emit(self) -> None:
        packet = self.packet_factory(self.emitted)
        packet.creation_time = self._kernel().now
        if self.tracker is not None:
            self.tracker.stamp(packet, packet.creation_time,
                               source=self.name)
        self.emitted += 1
        self.send(packet, stream=0)
        self._schedule_next()
