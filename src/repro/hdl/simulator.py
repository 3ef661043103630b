"""Event-driven HDL simulation kernel with delta cycles.

The Synopsys-VSS-equivalent substrate.  Semantics follow the VHDL
simulation cycle:

1. signal updates scheduled for the current time are applied;
2. signals whose resolved value changed produce *events*;
3. processes sensitive to (or waiting on) those events run, scheduling
   new updates — zero-delay updates take effect in the *next delta
   cycle* at the same simulated time;
4. when no delta work remains, time advances to the next scheduled
   update.

Time is integral (ticks); :attr:`Simulator.time_unit` gives the tick
length in seconds (default 1 ns) and is what the CASTANET abstraction
interface uses to convert between network-simulator seconds and HDL
clock cycles.

The kernel counts events, delta cycles and process runs — the raw
material for the paper's observation that "the number of events that
event-driven simulators have to evaluate is an order of magnitude
higher compared to the system-level simulation" (experiment E3).

Hot-path design notes (the paper's conclusion is that "event-driven
VHDL-simulators are obviously a bottleneck in the co-verification
process"; this kernel is where that bottleneck lives in the repro):

* future updates are slotted :class:`_ScheduledUpdate` records, and
  inertial-delay preemption is O(1) *tombstoning* — cancelling bumps a
  per-driver generation counter on the signal, and stale records are
  dropped when popped — instead of rescanning/re-heapifying the heap;
* a :class:`~repro.hdl.cycle.CycleEngine` may be *attached* to the
  simulator; :meth:`Simulator.run` then delegates to the engine, which
  applies clock edges by direct dispatch instead of heap-scheduled
  generator resumes (see ``cycle.py``);
* precompiled stimulus is injected in bulk: one
  :meth:`Simulator.schedule_waveform` call plays back a whole
  transition list (a :class:`WaveformStream`) with no generator resume
  per clock — each due transition batch is applied as its own delta
  cycle *after* the coincident clock edge has settled, so a bulk
  waveform is observationally identical to a generator process that
  drives the same values after each edge.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, Generator, List, Optional, Sequence, \
    Tuple

from .processes import CallbackProcess, GeneratorProcess, Process
from .signal import Signal

__all__ = ["Simulator", "SimulationError", "CombinationalLoopError",
           "WaveformStream"]


class SimulationError(Exception):
    """Raised on kernel-level errors (time reversal, bad scheduling)."""


class CombinationalLoopError(SimulationError):
    """Raised when delta cycles at one time step exceed the bound —
    the classic symptom of a zero-delay feedback loop."""


class _ScheduledUpdate:
    """A future (non-delta) signal update waiting on the heap.

    ``gen`` snapshots the driver's preemption generation at scheduling
    time; a mismatch at pop time means the update was cancelled by an
    inertial re-drive and the record is a tombstone.
    """

    __slots__ = ("signal", "driver", "value", "gen")

    def __init__(self, signal: Signal, driver: object, value,
                 gen: int) -> None:
        self.signal = signal
        self.driver = driver
        self.value = value
        self.gen = gen


class WaveformStream:
    """One bulk-scheduled transition list (see
    :meth:`Simulator.schedule_waveform`).

    ``transitions`` is a list of ``(offset, signal, value)`` tuples
    with tick offsets relative to ``base`` (absolute time = ``base +
    offset``); values are already normalised.  ``callbacks`` is a list
    of ``(offset, callable)`` completion hooks fired when playback
    passes their offset.  ``order`` is the creation sequence number:
    at coincident times, earlier-scheduled streams apply first (the
    tie-break that keeps chained cell waveforms in FIFO order).
    """

    __slots__ = ("base", "transitions", "driver", "callbacks", "order",
                 "index", "cb_index")

    def __init__(self, base: int, transitions: List[tuple],
                 driver: object, callbacks: Sequence[tuple],
                 order: int) -> None:
        self.base = base
        self.transitions = transitions
        self.driver = driver
        self.callbacks = callbacks
        self.order = order
        self.index = 0
        self.cb_index = 0

    @property
    def pending(self) -> int:
        """Transitions not yet applied."""
        return len(self.transitions) - self.index

    def next_time(self) -> Optional[int]:
        """Absolute tick of the next transition or callback, or
        ``None`` when playback has finished."""
        time = None
        if self.index < len(self.transitions):
            time = self.base + self.transitions[self.index][0]
        if self.cb_index < len(self.callbacks):
            cb_time = self.base + self.callbacks[self.cb_index][0]
            if time is None or cb_time < time:
                time = cb_time
        return time


class Simulator:
    """An event-driven simulator instance.

    Example:
        >>> sim = Simulator()
        >>> clk = sim.signal("clk", init="0")
        >>> sim.add_clock(clk, period=10)
        >>> sim.run(until=25)
        >>> clk.value
        '1'
    """

    def __init__(self, time_unit: float = 1e-9,
                 max_delta_cycles: int = 1000) -> None:
        self.time_unit = time_unit
        self.max_delta_cycles = max_delta_cycles
        self.now: int = 0
        self.signals: List[Signal] = []
        self.processes: List[Process] = []
        #: hooks called with each signal after a value change (VCD etc.)
        self.signal_hooks: List[Callable[[Signal], None]] = []

        self._heap: List[Tuple[int, int, object]] = []
        self._seq = itertools.count()
        self._pending_updates: List[tuple] = []
        self._pending_resumes: List[GeneratorProcess] = []
        self._waiters: Dict[int, List[GeneratorProcess]] = {}
        self._current_process: Optional[Process] = None
        self._anonymous_driver = object()
        self._delta_stamp = 0
        self._initialized = False
        #: attached cycle-based clock engine (at most one); when set,
        #: :meth:`run` delegates the clocking to it
        self._engine = None
        #: bulk waveform playback (see :meth:`schedule_waveform`):
        #: a heap of (next_time, order, WaveformStream)
        self._wave_heap: List[Tuple[int, int, WaveformStream]] = []
        self._wave_pending = 0
        #: clock-signal id -> (period_ticks, first_rise_tick); written
        #: by :meth:`add_clock` and by an attaching CycleEngine so that
        #: stimulus compilers (e.g. CellSender's bulk path) can place
        #: transitions on clock edges without a running clock process
        self._clock_specs: Dict[int, Tuple[int, int]] = {}
        #: optional profiling hook — a zero-arg callable returning a
        #: context manager, wrapped around every :meth:`run` call (see
        #: :func:`repro.obs.profile.attach_profiling`)
        self.profile: Optional[Callable[[], object]] = None
        #: where RTL components built on this simulator land their
        #: processes: "compiled" binds each one's compile hook into
        #: its clock's CompiledKernel (falling back to the event
        #: kernel, counted on :attr:`compiled_fallbacks`, when the
        #: compile is refused); "event" runs the same hooks as
        #: rising-edge processes on the event kernel (E1's
        #: event-driven row and the other side of the equivalence
        #: tests).  Read by ``repro.rtl.Component`` when a process is
        #: registered.
        self.rtl_backend = "compiled"
        #: clock-signal id -> CompiledKernel (see repro.hdl.compiled)
        self._compiled_kernels: Dict[int, object] = {}
        #: processes whose compile was refused (UnsupportedFeature)
        #: and that run on the event kernel instead
        self.compiled_fallbacks = 0

        # statistics
        self.events_executed = 0     # applied signal updates
        self.signal_events = 0       # updates that changed a value
        self.delta_cycles = 0
        self.process_runs = 0
        self.waveforms_scheduled = 0  # schedule_waveform calls
        self.waveform_events = 0      # transitions applied in bulk

    def stats_snapshot(self) -> Dict[str, int]:
        """Machine-readable kernel counters (the raw material of the
        paper's event-count comparison, E3) — plain reads, no reset."""
        kernels = self._compiled_kernels.values()
        return {
            "now_ticks": self.now,
            "events_executed": self.events_executed,
            "signal_events": self.signal_events,
            "delta_cycles": self.delta_cycles,
            "process_runs": self.process_runs,
            "waveforms_scheduled": self.waveforms_scheduled,
            "waveform_events": self.waveform_events,
            "pending_events": self.pending_event_count,
            "signals": len(self.signals),
            "processes": len(self.processes),
            # compiled backend activity, aggregated over
            # all clock-domain kernels — see repro.hdl.compiled
            "compiled_components": sum(k.components for k in kernels),
            "compiled_evals": sum(k.evals_run for k in kernels),
            "compiled_commit_writes": sum(
                k.commit_writes for k in kernels),
            "compiled_fallbacks": self.compiled_fallbacks,
        }

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def signal(self, name: str, width: Optional[int] = None,
               init=None) -> Signal:
        """Create a signal owned by this simulator."""
        return Signal(self, name, width=width, init=init)

    def add_process(self, name: str, fn: Callable[["Simulator"], None],
                    sensitivity: Sequence[Signal] = (),
                    edge: str = "any") -> CallbackProcess:
        """Register an RTL-style callback process.

        ``edge="rise"`` wakes the process only on events that leave a
        sensitivity signal at '1' (a clocked process guarded by
        ``rising_edge``), skipping the wasted falling-edge dispatch.
        """
        process = CallbackProcess(name, fn, sensitivity, edge=edge)
        self.processes.append(process)
        if self._initialized:
            self._pending_resume_callback(process)
        return process

    def add_generator(self, name: str,
                      generator: Generator) -> GeneratorProcess:
        """Register a behavioural generator process."""
        process = GeneratorProcess(name, generator)
        self.processes.append(process)
        if self._initialized:
            self._run_process(process)
        return process

    def add_clock(self, signal: Signal, period: int,
                  start_high: bool = False,
                  duty_ticks: Optional[int] = None) -> GeneratorProcess:
        """Drive *signal* as a free-running clock of *period* ticks."""
        if period < 2:
            raise SimulationError("clock period must be >= 2 ticks")
        high = duty_ticks if duty_ticks is not None else period // 2
        if not 0 < high < period:
            raise SimulationError(
                f"clock duty {high} outside (0, {period})")

        def clock_gen():
            first, second = ("1", "0") if start_high else ("0", "1")
            first_span = high if start_high else period - high
            second_span = period - first_span
            signal.drive(first)
            while True:
                yield first_span
                signal.drive(second)
                yield second_span
                signal.drive(first)

        first_rise = self.now + (period if start_high
                                 else period - high)
        self._register_clock(signal, period, first_rise)
        return self.add_generator(f"clock:{signal.name}", clock_gen())

    def _register_clock(self, signal: Signal, period: int,
                        first_rise: int) -> None:
        self._clock_specs[id(signal)] = (period, first_rise)

    def clock_spec(self, signal: Signal) -> Optional[Tuple[int, int]]:
        """The ``(period_ticks, first_rise_tick)`` of a registered
        clock on *signal* (via :meth:`add_clock` or an attached
        :class:`~repro.hdl.cycle.CycleEngine`), or ``None``."""
        return self._clock_specs.get(id(signal))

    def next_rising_edge(self, signal: Signal,
                         after: Optional[int] = None) -> int:
        """The first rising-edge tick of a registered clock strictly
        after *after* (default: the current time)."""
        spec = self.clock_spec(signal)
        if spec is None:
            raise SimulationError(
                f"no clock registered on signal {signal.name!r}")
        period, first_rise = spec
        time = self.now if after is None else after
        if time < first_rise:
            return first_rise
        return first_rise + ((time - first_rise) // period + 1) * period

    def schedule_waveform(self, transitions: Sequence[tuple],
                          start: Optional[int] = None,
                          driver: Optional[object] = None,
                          callbacks: Sequence[tuple] = (),
                          normalized: bool = False) -> \
            Optional[WaveformStream]:
        """Bulk event injection: insert a precompiled transition list.

        Args:
            transitions: ``(tick_offset, signal, value)`` tuples with
                non-decreasing integer offsets; at each absolute time
                ``start + offset`` the due batch is applied as one
                delta cycle.  At a time that also carries heap events
                (e.g. a clock edge) the waveform batch applies *after*
                those events and their deltas settle — exactly where a
                generator process woken by the edge would land its
                ``drive()`` calls.
            start: base tick (default: the current time; must not lie
                in the past).
            driver: driver identity for every transition (default: the
                current process, or the anonymous test-bench driver).
            callbacks: ``(tick_offset, callable)`` completion hooks in
                non-decreasing offset order, fired when playback
                reaches their offset (e.g. per-cell accounting).
            normalized: pass ``True`` when values are already
                normalised for their signal (e.g. from a cached
                template) to skip re-validation.

        Returns the scheduled :class:`WaveformStream` (``None`` for an
        empty call).  Streams scheduled earlier apply first at
        coincident times.  Transitions with the same driver and no
        value change still resolve identically to repeated ``drive()``
        calls, but cost no per-clock Python process resumption.
        """
        base = self.now if start is None else start
        if base < self.now:
            raise SimulationError(
                f"waveform start {base} lies in the past of {self.now}")
        compiled: List[tuple] = []
        previous = 0
        for offset, signal, value in transitions:
            if not isinstance(offset, int) or offset < 0:
                raise SimulationError(
                    f"waveform offset must be a non-negative int, "
                    f"got {offset!r}")
            if offset < previous:
                raise SimulationError(
                    f"waveform offsets must be non-decreasing "
                    f"({offset} after {previous})")
            previous = offset
            compiled.append(
                (offset, signal,
                 value if normalized else signal._normalize(value)))
        hooks = list(callbacks)
        previous = 0
        for offset, _fn in hooks:
            if not isinstance(offset, int) or offset < previous:
                raise SimulationError(
                    "waveform callback offsets must be non-decreasing "
                    "non-negative ints")
            previous = offset
        if not compiled and not hooks:
            return None
        if driver is None:
            driver = self._current_driver()
        stream = WaveformStream(base, compiled, driver, hooks,
                                next(self._seq))
        self.waveforms_scheduled += 1
        self._wave_pending += len(compiled)
        heapq.heappush(self._wave_heap,
                       (stream.next_time(), stream.order, stream))
        return stream

    def _collect_wave_due(self, time: int) -> None:
        """Move every waveform transition due at *time* to the pending
        updates (in stream order) and fire due completion callbacks."""
        wave = self._wave_heap
        pending = self._pending_updates
        while wave and wave[0][0] <= time:
            # The head stays on the heap while it plays: a stream a
            # callback schedules sorts after it (later order, no earlier
            # time), and heapreplace below re-keys it in one sift.
            stream = wave[0][2]
            transitions = stream.transitions
            base = stream.base
            index = stream.index
            count = len(transitions)
            while index < count and base + transitions[index][0] <= time:
                entry = transitions[index]
                pending.append((entry[1], stream.driver, entry[2]))
                index += 1
            applied = index - stream.index
            stream.index = index
            self._wave_pending -= applied
            self.waveform_events += applied
            callbacks = stream.callbacks
            cb_index = stream.cb_index
            cb_count = len(callbacks)
            while (cb_index < cb_count
                   and base + callbacks[cb_index][0] <= time):
                callbacks[cb_index][1]()
                cb_index += 1
            stream.cb_index = cb_index
            next_time = stream.next_time()
            if next_time is None:
                heapq.heappop(wave)
            else:
                heapq.heapreplace(wave, (next_time, stream.order, stream))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Run the initialisation phase (idempotent): every process
        executes once, then time-zero deltas settle."""
        if self._initialized:
            return
        self._initialized = True
        if self._engine is not None:
            self._engine._prime()
        for process in list(self.processes):
            self._run_process(process)
        self._execute_deltas()

    def run(self, until: Optional[int] = None) -> int:
        """Run until the event queue drains or *until* ticks.

        The clock is advanced to exactly *until* on return when given.
        With a cycle engine attached the engine supplies the clock
        edges (same observable semantics, no heap traffic per edge).
        Returns the current time.
        """
        profile = self.profile
        if profile is not None:
            with profile():
                return self._run_events(until)
        return self._run_events(until)

    def _run_events(self, until: Optional[int]) -> int:
        self.initialize()
        if self._engine is not None:
            return self._engine._run_until(until)
        self._execute_deltas()
        heap = self._heap
        wave = self._wave_heap
        while heap or wave:
            if heap and (not wave or heap[0][0] <= wave[0][0]):
                next_time = heap[0][0]
            else:
                next_time = wave[0][0]
            if until is not None and next_time > until:
                break
            if next_time < self.now:
                raise SimulationError(
                    f"time reversal: event at {next_time} < {self.now}")
            self.now = next_time
            if heap and heap[0][0] == next_time:
                self._pop_due(next_time)
                self._execute_deltas()
            if wave and wave[0][0] == next_time:
                self._collect_wave_due(next_time)
                self._execute_deltas()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_for(self, ticks: int) -> int:
        """Run *ticks* further from the current time."""
        return self.run(until=self.now + ticks)

    @property
    def pending_event_count(self) -> int:
        """Scheduled-but-unapplied updates/resumes (incl. future).

        May over-count by inertially cancelled transactions that are
        still on the heap as tombstones.
        """
        return (len(self._heap) + len(self._pending_updates)
                + len(self._pending_resumes) + self._wave_pending)

    def next_event_time(self) -> Optional[int]:
        """Time of the earliest scheduled future event (heap or bulk
        waveform), or ``None``."""
        if self._pending_updates or self._pending_resumes:
            return self.now
        wave = self._wave_heap
        wave_time = wave[0][0] if wave else None
        heap = self._heap
        while heap:
            item = heap[0][2]
            if type(item) is _ScheduledUpdate and self._is_stale(item):
                heapq.heappop(heap)     # discard the tombstone
                continue
            if wave_time is not None and wave_time < heap[0][0]:
                return wave_time
            return heap[0][0]
        return wave_time

    # ------------------------------------------------------------------
    # Kernel internals (used by Signal, processes and CycleEngine)
    # ------------------------------------------------------------------
    def _register_signal(self, signal: Signal) -> None:
        self.signals.append(signal)

    def _current_driver(self) -> object:
        return (self._current_process if self._current_process is not None
                else self._anonymous_driver)

    @staticmethod
    def _is_stale(item: "_ScheduledUpdate") -> bool:
        return item.gen != item.signal._driver_gen.get(item.driver, 0)

    def _pop_due(self, time: int) -> None:
        """Move every heap entry stamped *time* to the pending lists,
        dropping tombstoned updates."""
        heap = self._heap
        pending_updates = self._pending_updates
        pending_resumes = self._pending_resumes
        while heap and heap[0][0] == time:
            item = heapq.heappop(heap)[2]
            if type(item) is _ScheduledUpdate:
                if item.gen == item.signal._driver_gen.get(item.driver, 0):
                    pending_updates.append(
                        (item.signal, item.driver, item.value))
            else:
                pending_resumes.append(item)

    def _schedule_update(self, signal: Signal, driver: object,
                         value, delay: int) -> None:
        if not isinstance(delay, int) or delay < 0:
            raise SimulationError(
                f"drive delay must be a non-negative int, got {delay!r}")
        if delay == 0:
            self._pending_updates.append((signal, driver, value))
        else:
            record = _ScheduledUpdate(
                signal, driver, value, signal._driver_gen.get(driver, 0))
            heapq.heappush(self._heap,
                           (self.now + delay, next(self._seq), record))

    def _cancel_pending_updates(self, signal: Signal,
                                driver: object) -> None:
        """Drop this driver's not-yet-applied updates on *signal*
        (inertial-delay preemption).  Current-delta updates are
        filtered from the (small) pending list; future updates become
        O(1) tombstones — the driver's generation counter is bumped and
        stale heap records are discarded when they surface."""
        if self._pending_updates:
            self._pending_updates = [
                item for item in self._pending_updates
                if not (item[0] is signal and item[1] is driver)]
        gens = signal._driver_gen
        gens[driver] = gens.get(driver, 0) + 1

    def _schedule_resume(self, process: GeneratorProcess,
                         delay: int) -> None:
        if delay == 0:
            self._pending_resumes.append(process)
        else:
            heapq.heappush(self._heap, (self.now + delay, next(self._seq),
                                        process))

    def _add_waiter(self, signal: Signal,
                    process: GeneratorProcess) -> None:
        self._waiters.setdefault(id(signal), []).append(process)

    def _remove_waiter(self, signal: Signal,
                       process: GeneratorProcess) -> None:
        bucket = self._waiters.get(id(signal), [])
        if process in bucket:
            bucket.remove(process)

    def _pending_resume_callback(self, process: CallbackProcess) -> None:
        # Late-added callback processes execute in the next delta.
        self._pending_resumes.append(process)  # type: ignore[arg-type]

    def _attach_engine(self, engine) -> None:
        """Install *engine* as this simulator's clocking scheme."""
        if self._engine is not None:
            raise SimulationError(
                "a cycle engine is already attached to this simulator")
        self._engine = engine

    # ------------------------------------------------------------------
    # The delta loop
    # ------------------------------------------------------------------
    def _execute_deltas(self) -> None:
        rounds = 0
        hooks = self.signal_hooks
        while self._pending_updates or self._pending_resumes:
            rounds += 1
            if rounds > self.max_delta_cycles:
                raise CombinationalLoopError(
                    f"more than {self.max_delta_cycles} delta cycles at "
                    f"t={self.now}: zero-delay feedback loop?")
            self._delta_stamp += 1
            stamp = self._delta_stamp
            self.delta_cycles += 1
            updates = self._pending_updates
            resumes = self._pending_resumes
            self._pending_updates = []
            self._pending_resumes = []

            now = self.now
            changed: List[Signal] = []
            self.events_executed += len(updates)
            for signal, driver, value in updates:
                if signal._apply(driver, value):
                    signal._event_delta = stamp
                    signal.last_event_time = now
                    changed.append(signal)
            self.signal_events += len(changed)

            runnable: List[Process] = []
            seen = set()
            for signal in changed:
                kernel = signal._compiled_kernel
                if kernel is not None and signal._value == "1":
                    kernel._on_edge()
                self._wake_observers(signal, runnable, seen)
            for process in resumes:
                if process not in seen and not process.finished:
                    seen.add(process)
                    runnable.append(process)

            for process in runnable:
                self._current_process = process
                try:
                    process._run(self)
                    self.process_runs += 1
                finally:
                    self._current_process = None

            if hooks:
                for signal in changed:
                    for hook in hooks:
                        hook(signal)
        # Leave the stamp pointing past the last delta so that
        # Signal.event reads False once delta processing has settled.
        self._delta_stamp += 1

    def _wake_observers(self, signal: Signal, runnable: List[Process],
                        seen: set) -> int:
        """Append every process observing an event on *signal* to
        *runnable*: statically sensitive processes, rising-edge
        processes (when the event left the signal at '1'), and
        waiters whose edge condition is satisfied (disarmed here).

        The single edge-dispatch rule shared by the delta loop, the
        :class:`~repro.hdl.cycle.CycleEngine` general edge and the
        compiled kernel's commit phase.  Returns the number added.
        """
        added = 0
        for process in signal._sensitive:
            if process not in seen and not process.finished:
                seen.add(process)
                runnable.append(process)
                added += 1
        if signal._sensitive_rise and signal._value == "1":
            for process in signal._sensitive_rise:
                if process not in seen and not process.finished:
                    seen.add(process)
                    runnable.append(process)
                    added += 1
        bucket = self._waiters.get(id(signal))
        if bucket:
            for process in list(bucket):
                if (process not in seen
                        and process._satisfied_by(signal)):
                    seen.add(process)
                    process._disarm(self)
                    runnable.append(process)
                    added += 1
        return added

    def _run_process(self, process: Process) -> None:
        self._current_process = process
        try:
            process._run(self)
            self.process_runs += 1
        finally:
            self._current_process = None
