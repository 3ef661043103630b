"""Event primitives for the discrete-event network simulation kernel.

The kernel mirrors the event semantics the paper assumes of OPNET
(section 3.1): every simulator manages an *event list* ordered by
time stamp, events execute in monotone non-decreasing time order, and
events may be scheduled for the current or any future time but never
for the past.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Global monotone sequence used to break ties between events that carry
#: the same (time, priority) key.  Guarantees deterministic FIFO ordering
#: of simultaneous events, which the co-simulation protocol relies on.
_event_sequence = itertools.count()


class InterruptKind(enum.Enum):
    """Classification of interrupts delivered to process models.

    Mirrors OPNET's interrupt taxonomy: *stream* interrupts signal packet
    arrival on an input stream, *self* interrupts are timers a process
    schedules for itself, and the *begin* interrupt starts the
    simulation.
    """

    BEGIN = "begin"
    STREAM = "stream"
    SELF = "self"


@dataclass(frozen=True)
class Interrupt:
    """An interrupt delivered to a process model.

    Attributes:
        kind: the interrupt classification.
        stream: input stream index for STREAM interrupts (else ``None``).
        code: user code distinguishing SELF interrupts.
        data: payload — the arriving packet for STREAM interrupts, or any
            user object for SELF interrupts.
    """

    kind: InterruptKind
    stream: Optional[int] = None
    code: int = 0
    data: Any = None


class Event:
    """Handle of a scheduled event, returned by ``Kernel.schedule``.

    The kernel's event list holds ``(time, priority, seq, event)``
    tuples, so heap sifts compare floats and ints and never the handle
    (``seq`` is unique).  Lower priority values execute first among
    simultaneous events; ``seq`` preserves FIFO order of equal-priority
    simultaneous events.
    """

    __slots__ = ("time", "priority", "seq", "action", "cancelled")

    def __init__(self, time: float, priority: int, seq: int,
                 action: Callable[[], None]) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event cancelled (a tombstone): it stays in the
        event list and the kernel drops it when it reaches the head."""
        self.cancelled = True


class SchedulingError(Exception):
    """Raised when an event is scheduled in the past or the kernel is
    otherwise asked to violate causality."""
