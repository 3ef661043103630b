"""Network-domain communication links.

Links connect node ports across the network domain.  A
:class:`PointToPointLink` models a simplex link with a transmission
rate (bits/s) and a propagation delay; transmission of consecutive
packets serialises on the link, matching the behaviour of a physical
line interface such as an ATM SDH/SONET port.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from .kernel import Kernel
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

__all__ = ["PointToPointLink", "LinkError"]


class LinkError(Exception):
    """Raised on invalid link configuration."""


class PointToPointLink:
    """Simplex point-to-point link between two node ports.

    Args:
        kernel: the simulation kernel.
        src: transmitting node.
        src_port: port index on *src*.
        dst: receiving node.
        dst_port: port index on *dst*.
        rate_bps: transmission rate in bits per second; ``None`` means
            infinitely fast (zero serialisation time).
        delay: propagation delay in seconds.

    ATM example: a 155.52 Mbit/s STM-1 link carries one 424-bit cell
    every ~2.726 µs — the "cell time" the paper derives network-simulator
    time units from.
    """

    def __init__(self, kernel: Kernel, src: "Node", src_port: int,
                 dst: "Node", dst_port: int,
                 rate_bps: Optional[float] = None,
                 delay: float = 0.0) -> None:
        if rate_bps is not None and rate_bps <= 0:
            raise LinkError(f"non-positive link rate {rate_bps}")
        if delay < 0:
            raise LinkError(f"negative link delay {delay}")
        self.kernel = kernel
        self.src = src
        self.dst = dst
        self.dst_port = dst_port
        self.rate_bps = rate_bps
        self.delay = delay
        #: time at which the transmitter becomes free again
        self._tx_free_at = 0.0
        self.packets_carried = 0
        src.attach_link_tx(src_port, self.transmit)

    def serialization_time(self, packet: Packet) -> float:
        """Time to clock *packet* onto the line at the link rate."""
        if self.rate_bps is None:
            return 0.0
        return packet.size_bits / self.rate_bps

    def transmit(self, packet: Packet) -> None:
        """Accept *packet* from the source node and schedule delivery.

        Back-to-back packets queue on the transmitter: the next packet
        starts serialising only when the previous one has left.
        """
        now = self.kernel.now
        start = max(now, self._tx_free_at)
        ser = self.serialization_time(packet)
        self._tx_free_at = start + ser
        arrival = start + ser + self.delay
        self.packets_carried += 1
        self.kernel.schedule(arrival,
                             lambda: self.dst.deliver(packet, self.dst_port))
