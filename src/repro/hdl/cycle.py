"""Cycle-based clock evaluation (the paper's outlook, experiment E6).

"Because of the time scale problem, event-driven VHDL-simulators are
obviously a bottleneck in the co-verification process. ... Thus, the
integration of cycle-based simulation techniques is required."

:class:`CycleEngine` drives a clock signal *without* the event-driven
machinery the generator-based clock needs: no heap push/pop per edge
and no process resume for the clock generator itself.  Everything else
(sensitivity lists, delta cycles, generator waits on clock edges)
behaves identically, so the same RTL design runs under both schemes
and E6 measures the gap.

The engine is also the clock of the co-verification environment: it
attaches itself to the simulator, and ``Simulator.run(until=...)``
delegates to its one edge loop (``_run_edges``).  The loop costs
sequential synchronisation and combinational compute separately (CCSS,
PAPERS.md), because almost every edge of a compiled design needs only
the latter:

* **Whole-cycle clocking of quiet stretches.**  Edges are *quiet* when
  they can wake nothing but the compiled kernel: the engine is the
  clock's only driver, no delta work is pending, no signal hook is
  installed, no process is sensitive to or waiting on the clock.  That
  is asked once per stretch and again after every excursion into code
  that could change the answer — never per edge.  A stretch ends at
  the run's horizon, before the next timed heap event or with the
  first waveform batch due off a rising edge.  Inside it a rising edge
  is ``sim.now = t``, the kernel's sequential evaluations and a test
  of the dirty list; a falling edge is not executed at all.  A *busy*
  edge — one that stages an output change or has a batch due — adds
  the delta stamp (arithmetic: entry stamp, two per edge, and what the
  stretch's commits and batches took), the commit and the batch's
  post-edge delta, applied in place stream by stream through
  ``Signal._apply``.  What per-edge evaluation would have counted or
  stamped (kernel, engine and simulator counters, the clock's value,
  ``change_count``, ``last_event_time``, event stamp) is settled
  arithmetically once per stretch: at its end, or before any other
  code can read it.  Only a commit that wakes a process, or a batch
  with an observer or a completion callback, leaves the stretch.
* **The general edge** (``_apply_edge``) serves every other one —
  event-backend processes, generator waiters, VCD hooks, falling-edge
  logic, coincident delta work: one inline delta cycle waking the
  clock's sensitivity lists (a cached snapshot) and the current edge
  waiters, then the general delta loop for follow-up deltas.
* The initial clock level is primed during initialisation exactly like
  the generator clock's first drive, so the two clocking schemes are
  event-count-identical.

Both kinds of edge leave the same trace and counters behind
(``tests/hdl/test_cycle_quiet.py``).  Timed events are honoured: heap
events due at an edge's time apply before the edge, waveform batches
in their own delta after it.  A second driver on the clock (do not
also call ``sim.add_clock`` on it) keeps every edge general.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Tuple

from .processes import Process
from .signal import Signal
from .simulator import Simulator

__all__ = ["CycleEngine"]


class CycleEngine:
    """Clocks a simulator cycle-by-cycle.

    Args:
        sim: the simulator to clock.
        clk: the clock signal (must have no other driver).
        period: clock period in ticks.
        duty_ticks: high time in ticks (default ``period // 2``).

    The engine registers itself as *sim*'s clock, so
    ``sim.run(until=...)`` is engine-driven too (at most one engine per
    simulator).

    Example:
        >>> sim = Simulator()
        >>> clk = sim.signal("clk", init="0")
        >>> engine = CycleEngine(sim, clk, period=10)
        >>> engine.run_cycles(100)
        >>> sim.now
        1000
    """

    def __init__(self, sim: Simulator, clk: Signal, period: int,
                 duty_ticks: Optional[int] = None) -> None:
        if period < 2:
            raise ValueError("clock period must be >= 2 ticks")
        high = duty_ticks if duty_ticks is not None else period // 2
        if not 0 < high < period:
            raise ValueError(f"duty {high} outside (0, {period})")
        self.sim = sim
        self.clk = clk
        self.period = period
        self.high_ticks = high
        self.low_ticks = period - high
        self._driver = object()
        self._primed = False
        #: absolute tick of the next edge and the level it drives
        self._next_edge_time: Optional[int] = None
        self._next_edge_value = "1"
        #: cached snapshots of clk's sensitivity lists (edge tables);
        #: ``_edge_table_all`` is the rising-edge dispatch list (any
        #: sensitivity + rise-only sensitivity), ``_edge_table`` the
        #: falling-edge one
        self._edge_table: Tuple[Process, ...] = ()
        self._edge_table_len = -1
        self._edge_table_rise_len = -1
        self._edge_table_all: Tuple[Process, ...] = ()
        self._clk_id = id(clk)
        #: rising / all clock edges applied so far (observability)
        self.cycles_run = 0
        self.edges_applied = 0
        #: quiet stretches run, edges applied by the general path,
        #: edges inside a stretch that committed or absorbed a batch
        #: and waveform batches applied inside a stretch (cost model)
        self.stretches = 0
        self.general_edges = 0
        self.busy_edges = 0
        self.batches_absorbed = 0
        # Publish the clock geometry so bulk-stimulus compilers (e.g.
        # CellSender's waveform fast path) can place transitions on
        # edges of this clock; _prime() refreshes the anchor.
        sim._register_clock(clk, period, sim.now + self.low_ticks)
        sim._attach_engine(self)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run_cycles(self, cycles: int) -> None:
        """Advance the design by *cycles* full clock periods."""
        self._start()
        if cycles > 0:
            rising = self._next_edge_value == "1"
            self._run_edges(
                self._next_edge_time + (cycles - 1) * self.period
                + (self.high_ticks if rising else self.low_ticks))

    def _run_until(self, until: Optional[int]) -> int:
        """Engine-driven equivalent of ``Simulator.run(until=...)``:
        apply every clock edge up to *until*, draining timed heap
        events and bulk waveforms in between, and land exactly on
        *until*."""
        sim = self.sim
        self._start()
        if until is None:
            # No horizon: interleave edges with heap/waveform events
            # until both drain (the clock itself never schedules, so
            # this terminates exactly when an event-driven run of the
            # non-clock events would).  An edge coincident with the
            # event is applied only under a waveform batch, which must
            # land after it.
            wave = sim._wave_heap
            while True:
                next_time = sim.next_event_time()
                if next_time is None:
                    return sim.now
                self._run_edges(next_time - 1)
                self._advance_to(next_time, wave_at_target=False)
                if wave and wave[0][0] == next_time:
                    if self._next_edge_time == next_time:
                        self._apply_edge()
                    self._drain_wave_now()
        if until >= sim.now:
            self._run_edges(until)
            self._advance_to(until)
        return sim.now

    def schedule_waveform(self, *args, **kwargs):
        """Bulk event injection — delegates to
        :meth:`repro.hdl.Simulator.schedule_waveform`."""
        return self.sim.schedule_waveform(*args, **kwargs)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _start(self) -> None:
        """Initialise, prime the clock level and settle time-zero (or
        test-bench driven) delta work before the first edge."""
        self.sim.initialize()
        self._prime()
        self.sim._execute_deltas()

    def _run_edges(self, limit: int) -> None:
        """The one edge loop: apply every clock edge due at or before
        *limit*, leaving time on the last one.  Heap events apply
        before a coincident edge, waveform batches in their own delta
        after it (the event-driven kernel's order).  A quiet stretch
        (:meth:`_quiet`, :meth:`_run_quiet`) runs as whole cycles; any
        other edge, and the first one of a stretch too short to hold
        an edge, is a general one."""
        sim = self.sim
        heap = sim._heap
        wave = sim._wave_heap
        while self._next_edge_time <= limit:
            target = self._next_edge_time
            if self._quiet() and self._run_quiet(limit):
                self.stretches += 1
                if wave and wave[0][0] == sim.now:
                    self._drain_wave_now()
                continue
            if (heap and heap[0][0] <= target) or (
                    wave and wave[0][0] < target):
                self._advance_to(target, wave_at_target=False)
            else:
                sim.now = target
            self._apply_edge()
            if wave and wave[0][0] == target:
                self._drain_wave_now()

    def _quiet(self) -> bool:
        """Can the coming clock edges wake nothing but the compiled
        kernel?  Only code run from :meth:`_apply_edge`,
        :meth:`_advance_to`, :meth:`_drain_wave_now`, a commit that
        woke a process or a waveform callback can change the answer,
        so it is asked once per stretch, never per edge."""
        sim = self.sim
        clk = self.clk
        drivers = clk._drivers
        return (not (sim.signal_hooks or clk._sensitive
                     or clk._sensitive_rise
                     or sim._waiters.get(self._clk_id)
                     or sim._pending_updates or sim._pending_resumes)
                and len(drivers) == 1 and self._driver in drivers
                and (clk._value, self._next_edge_value) in (
                    ("0", "1"), ("1", "0")))       # the clock toggles

    def _run_quiet(self, limit: int) -> bool:
        """Whole-cycle clocking of the quiet edges from the next one
        up to *limit*, before the next timed heap event or up to the
        first waveform batch due off a rising edge (which the caller
        drains after the stretch).  A rising edge is the kernel's
        sequential evaluations (which see ``sim.now`` and the clock
        high) and a test of the dirty list, a falling edge nothing.

        A *busy* edge — one with a staged change or a batch due — also
        brings ``sim._delta_stamp`` up to date (arithmetic: the stamp
        at entry, two per edge, plus what the stretch's commits and
        batches took), runs the commit and applies every stream due at
        the edge in place, through ``Signal._apply``, as one post-edge
        delta.  Everything else an edge leaves behind is settled once
        (:meth:`_settle`): when the stretch ends, or before code that
        could read it runs — a commit that woke a process, a batch
        with an observer or a completion callback (these two go through
        the general delta loop and end the stretch, since either can
        end the quiet), or an evaluation or commit that raises.
        Returns False when no edge lies in the stretch."""
        sim = self.sim
        clk = self.clk
        heap = sim._heap
        wave = sim._wave_heap
        first = self._next_edge_time
        stop = limit + 1
        if heap and heap[0][0] < stop:
            stop = heap[0][0]                # heap work precedes its edge
        due = wave[0][0] if wave else stop
        if stop <= first or due < first:
            return False
        period = self.period
        rising_first = self._next_edge_value == "1"
        rise = first if rising_first else first + self.low_ticks
        kernel = clk._compiled_kernel
        evals = kernel._seq_evals if kernel is not None else ()
        dirty = kernel._dirty if kernel is not None else ()
        # the delta stamp once the edge at *rise* has settled; *extra*
        # counts the stamps commits and batches took, *tail* those
        # taken at the last busy edge (at *busy_rise*)
        entry = sim._delta_stamp
        stamp = entry + (2 if rising_first else 4)
        extra = tail = busy = commits = batches = events = changes = 0
        busy_rise = rise
        clk._previous, clk._value = "0", "1"
        if clk._compiled_slot is not None:
            clk._compiled_slot.value = "1"
        while rise < stop and due >= rise:
            if not evals and due > rise:
                # nothing to evaluate: skip to the batch's cycle
                skip = (min(due, stop - 1) - rise) // period
                rise += skip * period
                stamp += 4 * skip
            sim.now = rise
            try:
                for evaluate in evals:
                    evaluate()
            except BaseException:
                self._settle(rise, entry + extra, 0, busy, commits,
                             batches, events, changes)
                kernel.evals_run -= len(evals)   # as _on_edge counts
                raise
            if dirty or due == rise:
                busy_rise = rise
                tail = 0
                sim._delta_stamp = stamp
                if dirty:
                    # the commit delta: one round holding only the
                    # commit process
                    commits += 1
                    try:
                        kernel._commit()
                    except BaseException:
                        self._settle(rise, entry + extra, 0, busy,
                                     commits, batches, events, changes)
                        sim.process_runs -= 1    # as the delta loop counts
                        raise
                    if sim._pending_resumes:
                        self._settle(rise, entry + extra, 0, busy + 1,
                                     commits, batches, events, changes)
                        sim._execute_deltas()
                        return True
                    stamp += 1
                    extra += 1
                    tail = 1
                if due == rise:
                    due_streams = self._take_due(rise)
                    if due_streams is None:
                        # an edge that committed counts as busy
                        self._settle(rise, entry + extra, tail,
                                     busy + tail, commits, batches, events,
                                     changes)
                        sim._collect_wave_due(rise)
                        sim._execute_deltas()
                        return True
                    # the post-edge delta of a batch that wakes no one
                    stamp += 1
                    for stream, end in due_streams:
                        transitions = stream.transitions
                        driver = stream.driver
                        index = stream.index
                        events += end - index
                        while index < end:
                            _offset, signal, value = transitions[index]
                            if signal._apply(driver, value):
                                signal._event_delta = stamp
                                signal.last_event_time = rise
                                changes += 1
                            index += 1
                        stream.index = end
                        next_time = stream.next_time()
                        if next_time is not None:
                            heappush(wave, (next_time, stream.order, stream))
                    stamp += 1
                    extra += 2
                    tail += 2
                    batches += 1
                    due = wave[0][0] if wave else stop
                busy += 1
            rise += period
            stamp += 4
        if due < stop:
            stop = due + 1                   # a batch follows its edge
        through = stop - 1
        # the stamps taken after the last edge: the last busy edge's,
        # unless a falling edge follows it
        self._settle(through, entry + extra,
                     tail if through < busy_rise + self.high_ticks else 0,
                     busy, commits, batches, events, changes)
        return True

    def _take_due(self, rise: int) -> Optional[List[tuple]]:
        """Pop the waveform streams due at the rising edge *rise*, in
        playback order, each with the end index of its due
        transitions; or return None, leaving every stream on the heap,
        when one of them fires a completion callback or drives a signal
        someone observes."""
        wave = self.sim._wave_heap
        waiters = self.sim._waiters
        clk = self.clk
        due_streams = []
        while wave and wave[0][0] == rise:
            stream = wave[0][2]
            offset = rise - stream.base
            callbacks = stream.callbacks
            if (stream.cb_index < len(callbacks)
                    and callbacks[stream.cb_index][0] <= offset):
                break                           # a completion callback
            transitions = stream.transitions
            count = len(transitions)
            end = stream.index
            while end < count and transitions[end][0] <= offset:
                signal = transitions[end][1]
                if (signal._sensitive or signal._sensitive_rise
                        or signal._compiled_kernel or signal is clk
                        or waiters.get(id(signal))):
                    break
                end += 1
            if end < count and transitions[end][0] <= offset:
                break                           # an observer
            heappop(wave)
            due_streams.append((stream, end))
        else:
            return due_streams
        for stream, _end in due_streams:
            heappush(wave, (rise, stream.order, stream))
        return None

    def _settle(self, through: int, stamp: int, tail: int, busy: int,
                commits: int, batches: int, events: int,
                changes: int) -> None:
        """Account in one step for the stretch's edges from the next
        scheduled one up to time *through* (at least one): what that
        many :meth:`_apply_edge` calls that woke nothing leave behind
        — clock fields, time, engine, kernel and simulator counters
        and the delta stamp — plus what its busy edges did: *commits*
        commit deltas, *batches* post-edge deltas applying *events*
        transitions of which *changes* changed a value, on *busy*
        edges.  *stamp* is the delta stamp at the stretch's entry plus
        the stamps its commits and batches took, the last *tail* of
        them after the last edge."""
        sim = self.sim
        clk = self.clk
        first = self._next_edge_time
        rising_first = self._next_edge_value == "1"
        span = self.high_ticks if rising_first else self.low_ticks
        cycles, rest = divmod(through - first, self.period)
        odd = rest < span            # the last edge is like the first
        edges = 2 * cycles + (1 if odd else 2)
        rises = cycles + (1 if rising_first or not odd else 0)
        now = first + cycles * self.period + (0 if odd else span)
        if rising_first == odd:      # the last edge is a rising one
            value, self._next_edge_value = "1", "0"
            self._next_edge_time = now + self.high_ticks
        else:
            value, self._next_edge_value = "0", "1"
            self._next_edge_time = now + self.low_ticks
        self.edges_applied += edges
        self.cycles_run += rises
        self.busy_edges += busy
        self.batches_absorbed += batches
        sim.now = now
        sim.delta_cycles += edges + commits + batches
        sim.events_executed += edges + events
        sim.signal_events += edges + changes
        sim.process_runs += commits
        sim.waveform_events += events
        sim._wave_pending -= events
        stamp += 2 * edges
        sim._delta_stamp = stamp
        clk._drivers[self._driver] = value
        clk._previous = self._next_edge_value
        clk._value = value
        clk.change_count += edges
        clk._event_delta = stamp - 1 - tail
        clk.last_event_time = now
        if clk._compiled_slot is not None:
            clk._compiled_slot.value = value
        kernel = clk._compiled_kernel
        if kernel is not None:
            kernel.evals_run += rises * len(kernel._seq_evals)
            kernel._commit_proc.runs += commits

    def _prime(self) -> None:
        """Apply the pre-first-edge clock level once, mirroring the
        generator clock's initial drive (this keeps the two clocking
        schemes event-identical, including kernel event counts)."""
        if self._primed:
            return
        self._primed = True
        self.sim._pending_updates.append((self.clk, self._driver, "0"))
        if self._next_edge_time is None:
            self._next_edge_time = self.sim.now + self.low_ticks
            self._next_edge_value = "1"
        if self._next_edge_value == "1":
            # Authoritative first-rise anchor for bulk stimulus.
            self.sim._register_clock(self.clk, self.period,
                                     self._next_edge_time)

    def _apply_edge(self) -> None:
        """Drive the scheduled edge at the current time by direct
        dispatch: one inline delta cycle waking the edge table and the
        current waiters, then the general loop for any follow-up
        deltas."""
        sim = self.sim
        clk = self.clk
        self.edges_applied += 1
        self.general_edges += 1
        value = self._next_edge_value
        if value == "1":
            self.cycles_run += 1
            self._next_edge_value = "0"
            self._next_edge_time += self.high_ticks
        else:
            self._next_edge_value = "1"
            self._next_edge_time += self.low_ticks

        if sim._pending_updates or sim._pending_resumes:
            # Coincident same-time work: keep strict delta ordering by
            # going through the general kernel path.
            sim._pending_updates.append((clk, self._driver, value))
            sim._execute_deltas()
            return

        # -- fast dispatch: the edge is the only delta-0 work ---------
        stamp = sim._delta_stamp + 1
        sim._delta_stamp = stamp
        sim.delta_cycles += 1
        sim.events_executed += 1
        drivers = clk._drivers
        drivers[self._driver] = value
        if len(drivers) == 1:
            # Inlined single-driver Signal._apply (the engine owns the
            # clock, so this is the per-edge common case).
            if value == clk._value:
                sim._delta_stamp = stamp + 1  # settle, as the loop would
                return
            clk._previous = clk._value
            clk._value = value
            clk.change_count += 1
            slot = clk._compiled_slot
            if slot is not None:
                slot._sync(value)
        elif not clk._apply(self._driver, value):
            sim._delta_stamp = stamp + 1  # settle, as the loop would
            return
        clk._event_delta = stamp
        clk.last_event_time = sim.now
        sim.signal_events += 1

        kernel = clk._compiled_kernel
        if kernel is not None and value == "1":
            kernel._on_edge()

        sensitive = clk._sensitive
        rise = clk._sensitive_rise
        if (len(sensitive) != self._edge_table_len
                or len(rise) != self._edge_table_rise_len):
            self._edge_table = tuple(sensitive)
            self._edge_table_len = len(sensitive)
            self._edge_table_rise_len = len(rise)
            self._edge_table_all = self._edge_table + tuple(rise)
        table = self._edge_table_all if value == "1" else self._edge_table
        runnable: List[Process] = [
            p for p in table if not p.finished] if table else []
        if sim._waiters.get(self._clk_id):
            # The edge table already carries clk's sensitivity lists
            # (and, on falling edges, value == '1' never holds), so the
            # shared dispatch rule only adds the satisfied waiters.
            sim._wake_observers(clk, runnable, set(runnable))

        if runnable:
            try:
                for process in runnable:
                    sim._current_process = process
                    process._run(sim)
                sim.process_runs += len(runnable)
            finally:
                sim._current_process = None

        hooks = sim.signal_hooks
        if hooks:
            for hook in hooks:
                hook(clk)

        if sim._pending_updates or sim._pending_resumes:
            sim._execute_deltas()    # follow-up deltas + settle stamp
        else:
            sim._delta_stamp += 1    # settle stamp

    def stats_snapshot(self) -> dict:
        """Engine counters for observability snapshots."""
        return {
            "period_ticks": self.period,
            "cycles_run": self.cycles_run,
            "edges_applied": self.edges_applied,
            "stretches": self.stretches,
            "general_edges": self.general_edges,
            "busy_edges": self.busy_edges,
            "batches_absorbed": self.batches_absorbed,
        }

    def _advance_to(self, target: int,
                    wave_at_target: bool = True) -> None:
        """Drain heap and waveform events up to *target*, then land on
        it.  With ``wave_at_target=False``, waveform batches due
        exactly at *target* are left for :meth:`_drain_wave_now` —
        the caller applies the edge at *target* first, preserving the
        event-kernel ordering (edge before waveform batch)."""
        sim = self.sim
        heap = sim._heap
        wave = sim._wave_heap
        while True:
            due_heap = bool(heap) and heap[0][0] <= target
            if wave:
                wave_head = wave[0][0]
                due_wave = (wave_head <= target if wave_at_target
                            else wave_head < target)
            else:
                due_wave = False
            if not due_heap and not due_wave:
                break
            if due_heap and (not due_wave or heap[0][0] <= wave[0][0]):
                next_time = heap[0][0]
            else:
                next_time = wave[0][0]
            sim.now = next_time
            if heap and heap[0][0] == next_time:
                sim._pop_due(next_time)
                sim._execute_deltas()
            if wave and wave[0][0] == next_time and (
                    wave_at_target or next_time < target):
                sim._collect_wave_due(next_time)
                sim._execute_deltas()
        sim.now = target

    def _drain_wave_now(self) -> None:
        """Apply waveform batches due at the current time (used right
        after an edge so that edge-coincident transitions land in
        their own post-edge delta, exactly like the event kernel)."""
        sim = self.sim
        wave = sim._wave_heap
        while wave and wave[0][0] == sim.now:
            sim._collect_wave_due(sim.now)
            sim._execute_deltas()
