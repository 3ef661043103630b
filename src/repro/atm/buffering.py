"""ATM buffer-acceptance strategies.

Output buffers of ATM switches discriminate by cell loss priority:
with *partial buffer sharing* (PBS) a queue of capacity K admits
CLP=1 (tagged/low-priority) cells only while the occupancy is below a
threshold T < K, reserving the headroom for CLP=0 traffic.  This is
the standard mechanism the CLP bit — and the tagging action of the
UPC policer — exists for, and a design parameter one explores at the
system level before committing it to hardware.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..netsim.node import Module
from ..netsim.packet import Packet

__all__ = ["PbsQueueModule"]


class PbsQueueModule(Module):
    """A partial-buffer-sharing output queue.

    Args:
        name: module name.
        capacity: total buffer size K in cells.
        clp1_threshold: T — CLP=1 cells are dropped when the occupancy
            is at or above this value (must satisfy 0 <= T <= K).
        service_time: drain interval; one cell leaves on output
            stream 0 every ``service_time`` time units.

    Statistics: :attr:`dropped_clp0`, :attr:`dropped_clp1`,
    :attr:`max_occupancy`.
    """

    def __init__(self, name: str, capacity: int, clp1_threshold: int,
                 service_time: Optional[float] = None) -> None:
        super().__init__(name)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0 <= clp1_threshold <= capacity:
            raise ValueError(
                f"threshold {clp1_threshold} outside 0..{capacity}")
        self.capacity = capacity
        self.clp1_threshold = clp1_threshold
        self.service_time = service_time
        self._fifo: Deque[Packet] = deque()
        self._busy = False
        self.dropped_clp0 = 0
        self.dropped_clp1 = 0
        self.accepted_clp0 = 0
        self.accepted_clp1 = 0
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self._fifo)

    def receive(self, packet: Packet, stream: int) -> None:
        self.packets_in += 1
        clp = packet.get("CLP", 0)
        occupancy = len(self._fifo)
        if occupancy >= self.capacity:
            self._drop(clp)
            return
        if clp and occupancy >= self.clp1_threshold:
            self._drop(clp)
            return
        if clp:
            self.accepted_clp1 += 1
        else:
            self.accepted_clp0 += 1
        self._fifo.append(packet)
        self.max_occupancy = max(self.max_occupancy, len(self._fifo))
        if self.service_time is not None and not self._busy:
            self._busy = True
            self._kernel().schedule_after(self.service_time,
                                          self._complete)

    def pop(self) -> Optional[Packet]:
        """Explicitly remove the head cell (passive mode)."""
        if not self._fifo:
            return None
        return self._fifo.popleft()

    def _drop(self, clp: int) -> None:
        if clp:
            self.dropped_clp1 += 1
        else:
            self.dropped_clp0 += 1

    def _complete(self) -> None:
        if self._fifo:
            self.send(self._fifo.popleft(), stream=0)
        if self._fifo:
            self._kernel().schedule_after(self.service_time,
                                          self._complete)
        else:
            self._busy = False
