"""Discrete-event simulation kernel.

This is the OPNET-equivalent substrate of the co-verification
environment.  It provides a single-threaded event-list scheduler with
the semantics section 3.1 of the paper relies on:

* events are managed in an event list ordered by time stamp;
* events execute in monotone non-decreasing time order;
* events may be scheduled for the current simulated time or any future
  time, but never for a past time (attempting to do so raises
  :class:`~repro.netsim.events.SchedulingError`);
* simultaneous events execute in deterministic (priority, FIFO) order.

The kernel knows nothing about networking; nodes, links and process
models are layered on top (see :mod:`repro.netsim.node`,
:mod:`repro.netsim.process`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from .events import Event, SchedulingError, _event_sequence

__all__ = ["Kernel"]


class Kernel:
    """A discrete-event simulation kernel with a binary-heap event list
    of ``(time, priority, seq, event)`` tuples (see
    :class:`~repro.netsim.events.Event`).

    Example:
        >>> k = Kernel()
        >>> hits = []
        >>> k.schedule(2.0, lambda: hits.append(k.now))
        >>> k.schedule(1.0, lambda: hits.append(k.now))
        >>> k.run()
        >>> hits
        [1.0, 2.0]
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._now: float = 0.0
        self._executed_events = 0
        self._stop_requested = False
        #: largest event-list length ever reached (observability)
        self.peak_pending_events = 0
        #: number of distinct time advances (observability)
        self.time_advances = 0
        #: Hooks invoked with the new time each time ``now`` advances.
        self.time_listeners: List[Callable[[float], None]] = []
        #: optional profiling hook — a zero-arg callable returning a
        #: context manager, wrapped around every :meth:`run` call (see
        #: :func:`repro.obs.profile.attach_profiling`)
        self.profile: Optional[Callable[[], object]] = None

    # ------------------------------------------------------------------
    # Time and introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far (for event accounting)."""
        return self._executed_events

    @property
    def pending_events(self) -> int:
        """Number of events in the event list, cancelled ones excluded."""
        return sum(1 for entry in self._queue if not entry[3].cancelled)

    def stats_snapshot(self) -> dict:
        """Machine-readable kernel counters — plain reads, no reset."""
        return {
            "now_s": self._now,
            "executed_events": self._executed_events,
            "pending_events": self.pending_events,
            "peak_pending_events": self.peak_pending_events,
            "time_advances": self.time_advances,
        }

    def next_event_time(self) -> Optional[float]:
        """Time stamp of the earliest pending event, or ``None`` if empty."""
        self._drop_cancelled_head()
        return self._queue[0][0] if self._queue else None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, time: float, action: Callable[[], None],
                 priority: int = 0) -> Event:
        """Schedule *action* to run at absolute *time*.

        Raises:
            SchedulingError: if *time* lies in the simulator's past.
        """
        if time < self._now:
            raise SchedulingError(
                f"event scheduled at t={time} in the past of t={self._now}")
        seq = next(_event_sequence)
        event = Event(time, priority, seq, action)
        queue = self._queue
        heappush(queue, (time, priority, seq, event))
        if len(queue) > self.peak_pending_events:
            self.peak_pending_events = len(queue)
        return event

    def schedule_after(self, delay: float, action: Callable[[], None],
                       priority: int = 0) -> Event:
        """Schedule *action* to run *delay* time units from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        time = self._now + delay
        seq = next(_event_sequence)
        event = Event(time, priority, seq, action)
        queue = self._queue
        heappush(queue, (time, priority, seq, event))
        if len(queue) > self.peak_pending_events:
            self.peak_pending_events = len(queue)
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run events until the list drains, *until* is reached, or
        *max_events* events have executed (or :meth:`stop` is called).

        When *until* is given, the kernel's clock is advanced to exactly
        *until* on return even if the last event fired earlier, so that
        coupled simulators observe a consistent horizon — unless the run
        was cut short with an event still due by *until*.

        Returns:
            The simulated time at which execution stopped.
        """
        profile = self.profile
        if profile is not None:
            with profile():
                return self._run_events(until, max_events)
        return self._run_events(until, max_events)

    def _run_events(self, until: Optional[float],
                    max_events: Optional[int]) -> float:
        # The one run loop: head check, tombstone skip, horizon test and
        # time advance are inlined.
        self._stop_requested = False
        queue = self._queue
        # a negative count never reaches 0: unlimited
        remaining = -1 if max_events is None else max(0, max_events)
        horizon = float("inf") if until is None else until
        while remaining and not self._stop_requested:
            if not queue:
                break
            time, _, _, event = queue[0]
            if event.cancelled:
                heappop(queue)
                continue
            if time > horizon:
                break
            heappop(queue)
            if time != self._now:    # never below it: see schedule()
                self._now = time
                self.time_advances += 1
                for listener in self.time_listeners:
                    listener(time)
            event.action()
            self._executed_events += 1
            remaining -= 1
        else:
            # cut short by max_events or stop(): the clock must not pass
            # an event still due by *until* (a scan leaves tombstones be)
            if until is not None and any(
                    entry[0] <= until and not entry[3].cancelled
                    for entry in queue):
                return self._now
        if until is not None and until > self._now:
            self._advance_time(until)
        return self._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _advance_time(self, time: float) -> None:
        if time < self._now:
            raise SchedulingError(
                f"attempt to move time backwards: {self._now} -> {time}")
        if time != self._now:
            self._now = time
            self.time_advances += 1
            for listener in self.time_listeners:
                listener(time)

    def _drop_cancelled_head(self) -> None:
        while self._queue and self._queue[0][3].cancelled:
            heappop(self._queue)
