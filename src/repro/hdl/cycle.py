"""Cycle-based clock evaluation (the paper's outlook, experiment E6).

"Because of the time scale problem, event-driven VHDL-simulators are
obviously a bottleneck in the co-verification process. ... Thus, the
integration of cycle-based simulation techniques is required."

:class:`CycleEngine` drives a clock signal *without* the event-driven
machinery the generator-based clock needs: no heap push/pop per edge
and no process resume for the clock generator itself — each edge is a
direct delta evaluation.  Everything else (sensitivity lists, delta
cycles, generator waits on clock edges) behaves identically, so the
same RTL design runs under both schemes and E6 measures the gap.

The engine is also the clock of the co-verification environment (it
attaches itself to the simulator, and ``Simulator.run(until=...)``
delegates to it), with two further accelerations:

* the initial clock level is primed during initialisation exactly like
  the generator clock's first drive, so the two schemes are
  event-count-identical (this fixed the historic one-event E6b gap);
* clock edges are applied by *fast dispatch*: the edge's delta cycle
  is evaluated inline against a precomputed edge-sensitivity table (a
  snapshot of the clock's sensitivity list, refreshed only when
  processes are added) plus the current edge waiters, skipping the
  general delta loop's changed-signal bookkeeping.

Restrictions:
* the clock signal must not have another driver (do not also call
  ``sim.add_clock`` on it);
* timed events scheduled by other processes are honoured — the engine
  drains the heap up to each edge time before evaluating the edge.
"""

from __future__ import annotations

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
        self.cycles_run = 0
        #: clock edges applied through fast dispatch (observability)
        self.edges_applied = 0
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
        sim = self.sim
        sim.initialize()
        self._prime()
        sim._execute_deltas()
        heap = sim._heap
        wave = sim._wave_heap
        for _ in range(cycles):
            for _edge in (0, 1):                 # rising, falling
                target = self._next_edge_time
                if (heap and heap[0][0] <= target) or (
                        wave and wave[0][0] < target):
                    self._advance_to(target, wave_at_target=False)
                else:
                    sim.now = target
                self._apply_edge()
                if wave and wave[0][0] == target:
                    self._drain_wave_now()
            self.cycles_run += 1

    def _run_until(self, until: Optional[int]) -> int:
        """Engine-driven equivalent of ``Simulator.run(until=...)``:
        apply every clock edge up to *until*, draining timed heap
        events and bulk waveforms in between, and land exactly on
        *until*."""
        sim = self.sim
        sim.initialize()
        self._prime()
        sim._execute_deltas()
        if until is None:
            # No horizon: interleave edges with heap/waveform events
            # until both drain (the clock itself never schedules, so
            # this terminates exactly when an event-driven run of the
            # non-clock events would).  Same-time ordering matches the
            # event-driven kernel: heap events apply before the edge,
            # waveform batches after it.
            heap = sim._heap
            wave = sim._wave_heap
            while True:
                next_time = sim.next_event_time()
                if next_time is None:
                    return sim.now
                while self._next_edge_time < next_time:
                    target = self._next_edge_time
                    if (heap and heap[0][0] <= target) or (
                            wave and wave[0][0] < target):
                        self._advance_to(target, wave_at_target=False)
                    else:
                        sim.now = target
                    self._apply_edge()
                    if wave and wave[0][0] == target:
                        self._drain_wave_now()
                self._advance_to(next_time, wave_at_target=False)
                if wave and wave[0][0] == next_time:
                    if self._next_edge_time == next_time:
                        self._apply_edge()
                    self._drain_wave_now()
        if until < sim.now:
            return sim.now
        heap = sim._heap
        wave = sim._wave_heap
        while self._next_edge_time <= until:
            target = self._next_edge_time
            if (heap and heap[0][0] <= target) or (
                    wave and wave[0][0] < target):
                self._advance_to(target, wave_at_target=False)
            else:
                sim.now = target
            self._apply_edge()
            if wave and wave[0][0] == target:
                self._drain_wave_now()
        self._advance_to(until)
        return sim.now

    def schedule_waveform(self, *args, **kwargs):
        """Bulk event injection — delegates to
        :meth:`repro.hdl.Simulator.schedule_waveform`."""
        return self.sim.schedule_waveform(*args, **kwargs)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
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
        value = self._next_edge_value
        if value == "1":
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
