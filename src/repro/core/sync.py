"""Conservative simulator synchronisation (§3.1).

The protocol, quoting the paper:

  "Upon receipt of a message with a time stamp t_k for input queue I_j
  and t_k > t_cur the VHDL simulator is allowed to process all events
  with a time stamp smaller than t_k, but not equal.  Following, the
  current simulation time is updated to t_cur = t_k.  The message at
  queue I_j remains queued until all other input queues received
  messages with time stamp t_k or an event with a greater time stamp
  arrives at an arbitrary message queue.  In the first case the local
  simulation time is advanced by the minimum of each message type's
  processing delay δ_j.  Applying this strategy the simulated time of
  the VHDL simulator always lags behind OPNET's simulated time.  The
  use of this specific conservative synchronization protocol resolves
  the possibility of deadlock."

:class:`ConservativeSynchronizer` implements exactly this;
:class:`LockstepSynchronizer` is the naive per-clock coupling used as
the E2 ablation baseline.  Both maintain — and check — the safety
invariant that the HDL simulator's local time never overtakes the
network simulator's.

Both strategies advance the HDL simulator only through
``hdl.run(until=tick)``, which delegates to the attached clock engine
when one is present — the synchronisation protocol is independent of
the clocking scheme.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from ..hdl.simulator import Simulator
from .messages import (CausalityError, MessageQueueSet, TimestampedMessage)
from .timebase import TimeBase

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry
    from ..obs.trace import TraceWriter

__all__ = ["ConservativeSynchronizer", "LockstepSynchronizer",
           "SyncStatistics"]

Handler = Callable[[TimestampedMessage], None]


class SyncStatistics:
    """Counters shared by the synchronisation strategies.

    Always-on (plain integer adds): the E2 sync-exchange accounting
    must be available even with the observability registry disabled.
    """

    def __init__(self) -> None:
        self.messages_posted = 0
        self.null_messages = 0
        self.windows_granted = 0
        self.ticks_simulated = 0
        self.max_lag_seconds = 0.0
        #: messages released from their input queue to a handler
        self.messages_released = 0
        #: null messages whose stamp could not advance anything —
        #: behind the known originator time (conservative) or at/behind
        #: the HDL's local time (lockstep)
        self.stale_advances = 0
        #: null messages absorbed by horizon batching: their stamp was
        #: folded into a deferred bound instead of running a full
        #: protocol advance (see ``coalesce_nulls``)
        self.null_messages_coalesced = 0
        #: end-of-run drains executed
        self.drains = 0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for reports."""
        return {
            "messages_posted": self.messages_posted,
            "null_messages": self.null_messages,
            "windows_granted": self.windows_granted,
            "ticks_simulated": self.ticks_simulated,
            "max_lag_seconds": self.max_lag_seconds,
            "messages_released": self.messages_released,
            "stale_advances": self.stale_advances,
            "null_messages_coalesced": self.null_messages_coalesced,
            "drains": self.drains,
        }


class _SynchronizerBase:
    def __init__(self, hdl: Simulator, timebase: TimeBase) -> None:
        self.hdl = hdl
        self.timebase = timebase
        self.stats = SyncStatistics()
        #: largest originator time stamp seen so far (netsim side)
        self.originator_time = 0.0
        self._lag_hist = None
        self._trace: Optional["TraceWriter"] = None

    def attach_observability(self,
                             metrics: Optional["MetricsRegistry"] = None,
                             trace: Optional["TraceWriter"] = None
                             ) -> None:
        """Wire the optional metrics registry (lag histogram) and
        structured trace stream into this synchroniser.  Without a
        call, only the always-on :class:`SyncStatistics` counters run."""
        if metrics is not None and metrics.enabled:
            self._lag_hist = metrics.histogram("sync.lag_s")
        self._trace = trace

    # -- invariant -----------------------------------------------------------
    def _check_lag_invariant(self) -> None:
        hdl_seconds = self.timebase.to_seconds(self.hdl.now)
        if hdl_seconds > self.originator_time + 1e-12:
            raise CausalityError(
                f"HDL time {hdl_seconds}s overtook the network "
                f"simulator's {self.originator_time}s — the conservative "
                "protocol's lag invariant is broken")
        lag = self.originator_time - hdl_seconds
        if lag > self.stats.max_lag_seconds:
            self.stats.max_lag_seconds = lag
        if self._lag_hist is not None:
            self._lag_hist.record(lag)

    def _run_hdl_until_tick(self, tick: int) -> None:
        if tick > self.hdl.now:
            before = self.hdl.now
            self.hdl.run(until=tick)
            self.stats.ticks_simulated += self.hdl.now - before


class ConservativeSynchronizer(_SynchronizerBase):
    """The paper's timing-window protocol.

    Args:
        hdl: the HDL simulator (the "VHDL side").
        timebase: second/tick conversion.
        deltas: message type -> δ_j in DUT clock cycles.
        handlers: message type -> delivery callable; invoked when the
            protocol releases a message for processing (typically this
            injects a cell into the DUT's stimulus machinery).
        coalesce_nulls: batch null messages into cell-sized horizon
            grants.  A burst of ``advance_time`` stamps is folded into
            one deferred lower bound (the maximum stamp) that is
            applied — one queue sweep, one protocol advance — when the
            stamp crosses the next cell-time boundary or a data message
            arrives.  HDL-visible timing is unchanged: deliveries still
            happen at ``tick(t_k)`` because every release follows a
            ``_grant_window(t_k)``, and a deferred null carries no
            payload to deliver.  Off by default (the E2 ablation
            measures the raw per-null protocol cost).

    Driving:
        ``post(msg_type, time, payload)`` — a data message from the
        network simulator.
        ``advance_time(time)`` — a null (time-only) message announcing
        the originator's clock on *all* queues; the standard
        Chandy-Misra deadlock-avoidance device, and the paper's
        "time-stamped messages updating the receiving simulator with
        the current simulation time of the originator".
        ``drain(time)`` — announce *time* and release every remaining
        queued message (end of simulation).
    """

    def __init__(self, hdl: Simulator, timebase: TimeBase,
                 deltas: Dict[str, int],
                 handlers: Optional[Dict[str, Handler]] = None,
                 coalesce_nulls: bool = False) -> None:
        super().__init__(hdl, timebase)
        self.queues = MessageQueueSet(deltas)
        self.handlers: Dict[str, Handler] = dict(handlers or {})
        #: t_cur of §3.1 — the netsim-side time horizon granted to the
        #: HDL simulator (seconds)
        self.t_cur = 0.0
        self.coalesce_nulls = coalesce_nulls
        #: deferred null bound: max stamp not yet applied to the queues
        self._null_pending: Optional[float] = None
        #: stamp threshold that forces the next flush (last applied
        #: bound + one cell time)
        self._null_flush_at = 0.0
        #: msg_type -> queue-wait histogram (observability, see
        #: :meth:`attach_observability`)
        self._wait_hists: Dict[str, Any] = {}
        self._metrics: Optional["MetricsRegistry"] = None
        #: optional profiling hook — a zero-arg callable returning a
        #: context manager, wrapped around every protocol queue sweep
        #: (see :func:`repro.obs.profile.attach_profiling`)
        self.profile: Optional[Callable[[], Any]] = None

    def attach_observability(self,
                             metrics: Optional["MetricsRegistry"] = None,
                             trace: Optional["TraceWriter"] = None
                             ) -> None:
        """Wire metrics/trace in; adds per-queue wait-time histograms."""
        super().attach_observability(metrics, trace)
        if metrics is not None and metrics.enabled:
            self._metrics = metrics
            for name in self.queues.queues:
                self._wait_hists[name] = metrics.histogram(
                    f"sync.queue_wait_s.{name}")

    # -- originator-side API ----------------------------------------------
    def post(self, msg_type: str, time: float, payload: Any = None) -> None:
        """Receive a data message from the network simulator.

        The message is queued *before* any deferred null bound is
        flushed: a data message at *time* is itself proof the
        originator reached *time*, and the lag invariant must be
        checked against that knowledge.  (With several synchronisers
        sharing one HDL kernel — a sharded switch + accounting group —
        a sibling entity may already have run the shared clock to
        *time*; flushing a stale coalesced bound first would spuriously
        trip this entity's causality check.)
        """
        self._queue_message(msg_type, time, payload)
        self._flush_nulls()
        self._advance()

    def _queue_message(self, msg_type: str, time: float,
                       payload: Any) -> None:
        if time < self.t_cur:
            raise CausalityError(
                f"message {msg_type!r} at t={time} in the past of the "
                f"granted horizon t_cur={self.t_cur}")
        self.queues.push(TimestampedMessage(time=time, msg_type=msg_type,
                                            payload=payload))
        self.stats.messages_posted += 1
        self.originator_time = max(self.originator_time, time)
        if self._trace is not None:
            fields = {"type": msg_type, "t": time,
                      "hdl_s": self.timebase.to_seconds(self.hdl.now)}
            tid = getattr(payload, "trace_id", None)
            if tid is not None:
                fields["cell"] = tid
            self._trace.emit("post", **fields)

    def advance_time(self, time: float) -> None:
        """Receive a null message: all queues learn the originator has
        reached *time* (no payload).

        A stamp behind the known originator time is a *stale* null
        message: harmless (a lower bound the receiver already holds)
        but counted in ``stats.stale_advances``.

        With ``coalesce_nulls`` the stamp is folded into a deferred
        bound instead of sweeping the queues immediately; the bound is
        applied when a stamp crosses the next cell-time boundary, a
        data message arrives, or the run drains.
        """
        stale = time < self.originator_time
        if stale:
            self.stats.stale_advances += 1
        self.stats.null_messages += 1
        self.originator_time = max(self.originator_time, time)
        if self.coalesce_nulls:
            pending = self._null_pending
            self._null_pending = (time if pending is None
                                  else max(pending, time))
            deferred = time < self._null_flush_at
            if self._trace is not None:
                self._trace.emit(
                    "null", t=time, stale=stale, coalesced=deferred,
                    hdl_s=self.timebase.to_seconds(self.hdl.now))
            if deferred:
                self.stats.null_messages_coalesced += 1
                return
            self._flush_nulls()
            return
        for queue in self.queues.queues.values():
            queue.advance_time(time)
        if self._trace is not None:
            self._trace.emit("null", t=time, stale=stale,
                             hdl_s=self.timebase.to_seconds(self.hdl.now))
        self._advance()

    def _flush_nulls(self) -> None:
        """Apply the deferred null bound (coalescing mode): one queue
        sweep at the maximum pending stamp, then a protocol advance."""
        stamp = self._null_pending
        if stamp is None:
            return
        self._null_pending = None
        self._null_flush_at = stamp + self.timebase.cell_time_seconds
        for queue in self.queues.queues.values():
            queue.advance_time(stamp)
        self._advance()

    def drain(self, time: Optional[float] = None) -> None:
        """End of run: release every queued message and settle the DUT.

        *time* defaults to far enough past the last message for every
        processing window to complete.
        """
        self.stats.drains += 1
        if self._trace is not None:
            self._trace.emit("drain", t=time)
        if time is not None:
            self.advance_time(time)
        self._flush_nulls()
        while self.queues.pending():
            head = self.queues.earliest_head()
            assert head is not None
            name, t_k = head
            self._grant_window(t_k)
            self._release(name)
        # allow the last processing window to finish
        final_ticks = self.hdl.now + self.timebase.clocks_to_ticks(
            max(q.delta_cycles for q in self.queues.queues.values()))
        self.originator_time = max(
            self.originator_time, self.timebase.to_seconds(final_ticks))
        self._run_hdl_until_tick(final_ticks)
        self._check_lag_invariant()

    # -- protocol core ---------------------------------------------------------
    def _advance(self) -> None:
        profile = self.profile
        if profile is not None:
            with profile():
                self._advance_queues()
            return
        self._advance_queues()

    def _advance_queues(self) -> None:
        while True:
            head = self.queues.earliest_head()
            if head is None:
                return
            name, t_k = head
            self._grant_window(t_k)
            if not self.queues.all_covered_to(t_k):
                # Other queues may still produce earlier messages; the
                # head message stays queued (the wait of §3.1).
                return
            self._release(name)

    def _grant_window(self, t_k: float) -> None:
        """Allow the HDL simulator to process events strictly before
        t_k, then update t_cur."""
        if t_k > self.t_cur:
            self.stats.windows_granted += 1
            self.t_cur = t_k
            if self._trace is not None:
                self._trace.emit(
                    "window", t_cur=t_k,
                    hdl_s=self.timebase.to_seconds(self.hdl.now))
        self._run_hdl_until_tick(self.timebase.to_ticks(t_k))
        self._check_lag_invariant()

    def _release(self, msg_type: str) -> None:
        """Deliver the head message of *msg_type* and advance the local
        time by the minimum processing delay."""
        message = self.queues[msg_type].pop()
        self.stats.messages_released += 1
        hdl_seconds = self.timebase.to_seconds(self.hdl.now)
        wait = max(0.0, hdl_seconds - message.time)
        wait_hist = self._wait_hists.get(msg_type)
        if wait_hist is not None:
            wait_hist.record(wait)
        if self._trace is not None:
            fields = {"type": msg_type, "t": message.time,
                      "hdl_s": hdl_seconds, "wait_s": wait}
            tid = getattr(message.payload, "trace_id", None)
            if tid is not None:
                fields["cell"] = tid
            self._trace.emit("release", **fields)
        handler = self.handlers.get(msg_type)
        if handler is not None:
            handler(message)
        grant_ticks = self.timebase.clocks_to_ticks(
            self.queues.min_delta())
        target = self.hdl.now + grant_ticks
        # The processing window never overtakes the originator.
        limit = self.timebase.to_ticks(self.originator_time)
        self._run_hdl_until_tick(min(target, limit))
        self._check_lag_invariant()


class LockstepSynchronizer(_SynchronizerBase):
    """Naive per-clock coupling: the ablation baseline of E2.

    Every DUT clock period is a synchronisation point — one message
    per clock in each direction — which is exactly the cost the
    timing-window protocol avoids.
    """

    def __init__(self, hdl: Simulator, timebase: TimeBase,
                 handler: Optional[Handler] = None) -> None:
        super().__init__(hdl, timebase)
        self.handler = handler

    def post(self, msg_type: str, time: float, payload: Any = None) -> None:
        """Deliver a message, synchronising clock by clock up to it.

        The past check is at tick granularity: ``to_ticks`` absorbs
        binary-float quotient error, so a stamp whose tick equals the
        HDL's current tick is *simultaneous*, not late — comparing raw
        seconds would spuriously reject it whenever the float stamp
        lands a hair below the tick boundary.
        """
        if self.timebase.to_ticks(time) < self.hdl.now:
            raise CausalityError(
                f"lockstep message at t={time} in the HDL past")
        self.originator_time = max(self.originator_time, time)
        self.stats.messages_posted += 1
        if self._trace is not None:
            fields = {"type": msg_type, "t": time,
                      "hdl_s": self.timebase.to_seconds(self.hdl.now)}
            tid = getattr(payload, "trace_id", None)
            if tid is not None:
                fields["cell"] = tid
            self._trace.emit("post", **fields)
        target = self.timebase.to_ticks(time)
        period = self.timebase.clock_period_ticks
        while self.hdl.now + period <= target:
            self._run_hdl_until_tick(self.hdl.now + period)
            self.stats.null_messages += 1  # one sync exchange per clock
        self._run_hdl_until_tick(target)
        self._check_lag_invariant()
        self.stats.messages_released += 1
        if self.handler is not None:
            self.handler(TimestampedMessage(time=time, msg_type=msg_type,
                                            payload=payload))

    def advance_time(self, time: float) -> None:
        """Clock the DUT up to *time*, one sync exchange per clock.

        Unlike :meth:`post` — where a stamp in the HDL past is an
        unrecoverable causality error — a null message merely carries a
        lower bound on the originator's clock, so a stale stamp (at or
        behind the HDL's local time) is a no-op.  The seed silently
        dropped it, skipping the originator-time update, the exchange
        count and the invariant check; now the stale path runs the same
        bookkeeping as a live advance and is counted in
        ``stats.stale_advances``.
        """
        stale = time <= self.timebase.to_seconds(self.hdl.now)
        self.originator_time = max(self.originator_time, time)
        if self._trace is not None:
            self._trace.emit("null", t=time, stale=stale,
                             hdl_s=self.timebase.to_seconds(self.hdl.now))
        if stale:
            self.stats.stale_advances += 1
            self._check_lag_invariant()
            return
        target = self.timebase.to_ticks(time)
        period = self.timebase.clock_period_ticks
        while self.hdl.now + period <= target:
            self._run_hdl_until_tick(self.hdl.now + period)
            self.stats.null_messages += 1
        self._check_lag_invariant()
