"""Compiled RTL evaluation — the CCSS-style backend.

The event kernel charges every RTL process the full delta-cycle toll:
each output ``drive()`` normalises its value, schedules an update, and
the delta loop re-applies, re-resolves and re-dispatches it.  For
synthesisable components — clocked processes that read their inputs on
the rising edge and drive outputs for the next cycle — almost all of
that machinery is invariant and can be *compiled away*.

An RTL process is described once, by a compile hook: a builder that
declares its signal accesses on a context (``read`` returns the input's
:class:`Slot`, ``write`` returns a writer for an output) and returns
the per-edge evaluation callable.  The context decides where the
process runs:

* a :class:`CompileContext` binds it into the clock's
  :class:`CompiledKernel`.  Slots hold the *raw* value
  (``'0'``/``'1'``/… characters for scalars, plain ints for defined
  vectors, metavalue tuples otherwise), so reads cost one attribute
  load instead of a tuple walk; writes go through change-detecting
  writer closures into a dirty list — a no-change write costs one
  comparison, exactly mirroring the event kernel's
  no-event-on-no-change rule.  The kernel runs every evaluation on the
  rising edge and then applies the dirty slots in a single *commit
  phase* that lands in the same delta cycle where event-kernel
  ``drive()`` calls would apply — so a compiled process is
  trace-identical to the same hook on the event kernel;
* an :class:`EventContext` builds the same evaluation over live
  signals: reads are the same slots, writes are plain ``drive()``
  calls, and :class:`repro.rtl.Component` runs it as a genuine
  rising-edge process on the event kernel.

:class:`repro.rtl.Component` compiles every process unless
``Simulator.rtl_backend`` is ``"event"``; when compilation raises
:class:`UnsupportedFeature` (for example a written signal that already
carries a foreign driver) the process lands on the event kernel
instead and the fallback is counted on
``Simulator.compiled_fallbacks``.

Known divergence (intra-delta only, invisible to waveforms): the
commit wakes observers into the *following* delta cycle and marks
``Signal.event`` only for signals that actually woke an observer, so a
process polling ``.event`` on an unobserved compiled output inside the
same time step may read ``False`` where the event backend reads
``True``.  Final per-tick values — the
:func:`repro.reference.compare_waveforms` bar — are identical; the
equivalence suite in ``tests/rtl/test_compiled_equiv.py`` enforces it
per component.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from .logic import LogicError, vector_to_int
from .processes import CallbackProcess
from .signal import Signal
from .simulator import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator

__all__ = ["Slot", "CompileError", "UnsupportedFeature", "CompileContext",
           "EventContext", "CompiledKernel", "compile_kernel", "slot_int",
           "raw_value"]


class CompileError(SimulationError):
    """Raised when a process cannot be compiled; the
    :class:`UnsupportedFeature` subclass makes
    :class:`repro.rtl.Component` fall back to the event kernel."""


class UnsupportedFeature(CompileError):
    """Raised for processes the compiler does not cover (foreign
    drivers on a written signal, double writers, a non-scalar
    clock)."""


#: per-slot canonical-tuple -> int memo cap (mirrors Signal._norm_cache)
_INT_MEMO_LIMIT = 4096


class Slot:
    """The raw view of one signal that compile hooks read.

    ``value`` holds the signal's current resolved value in raw form:
    the ``std_logic`` character for scalars, a plain int for fully
    defined vectors, the canonical metavalue tuple otherwise.  It is
    kept in sync with :attr:`Signal.value` in both directions (the
    compiled kernel's commit phase outward, :meth:`Signal._apply`
    inward), so reads never need a refresh phase.
    """

    __slots__ = ("signal", "value", "next_value", "dirty", "writer",
                 "_int_memo")

    def __init__(self, signal: Signal) -> None:
        self.signal = signal
        self.value: object = None
        self.next_value: object = None
        self.dirty = False
        #: label of the compiled process writing this slot (if any)
        self.writer: Optional[str] = None
        self._int_memo: Dict[tuple, int] = {}
        self._sync(signal._value)

    def _sync(self, canonical) -> None:
        """Refresh the raw value from a canonical signal value."""
        if type(canonical) is str:
            self.value = canonical
            return
        memo = self._int_memo
        raw = memo.get(canonical)
        if raw is None:
            try:
                raw = vector_to_int(canonical)
            except LogicError:
                self.value = canonical      # metavalue: keep the tuple
                return
            if len(memo) < _INT_MEMO_LIMIT:
                memo[canonical] = raw
        self.value = raw

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Slot({self.signal.name}={self.value!r})"


def _slot_of(signal: Signal) -> Slot:
    """The slot of *signal*, attached on first use."""
    slot = signal._compiled_slot
    if slot is None:
        slot = signal._compiled_slot = Slot(signal)
    return slot


def slot_int(value) -> int:
    """Integer view of a slot value (defined vectors are already ints;
    metavalue tuples raise :class:`repro.hdl.LogicError` exactly like
    ``vector_to_int`` on the event path)."""
    if type(value) is int:
        return value
    return vector_to_int(value)


def raw_value(signal: Signal, value):
    """Normalise *value* for *signal* and convert it to the slot raw
    representation — for constants precomputed at compile time."""
    canonical = signal._normalize(value)
    if signal.width is None:
        return canonical
    try:
        return vector_to_int(canonical)
    except LogicError:
        return canonical


class CompileContext:
    """The builder-facing API of one process compilation.

    A component's compile hook receives a context and declares its
    signal accesses: :meth:`read` returns the input's :class:`Slot`,
    :meth:`write` returns a change-detecting writer closure for an
    output.  Declarations are staged — they are merged into the kernel
    only if the whole builder succeeds, so a refused compile leaves the
    kernel untouched.
    """

    def __init__(self, kernel: "CompiledKernel", label: str) -> None:
        self.kernel = kernel
        self.label = label
        #: signals written by this process (staged until merge)
        self.writes: List[Signal] = []

    def read(self, signal: Signal) -> Slot:
        """Declare *signal* as an input; returns its slot."""
        return self.kernel._slot(signal)

    def write(self, signal: Signal) -> Callable[[object], None]:
        """Declare *signal* as an output; returns the writer closure.

        Raises :class:`UnsupportedFeature` when the signal already has
        a foreign driver (a generator/test-bench process or another
        clock domain drives it — the compiler cannot prove exclusive
        ownership) or another compiled process already writes it.
        """
        slot = self.kernel._slot(signal)
        if slot.writer is not None:
            raise UnsupportedFeature(
                f"{self.label}: signal {signal.name!r} is already "
                f"written by compiled process {slot.writer!r}")
        for staged in self.writes:
            if staged is signal:
                raise UnsupportedFeature(
                    f"{self.label}: signal {signal.name!r} declared "
                    "written twice")
        if signal._drivers:
            raise UnsupportedFeature(
                f"{self.label}: signal {signal.name!r} already has "
                f"{len(signal._drivers)} driver(s) outside the "
                "compiled kernel")
        self.writes.append(signal)
        kernel = self.kernel
        dirty = kernel._dirty

        def write_fn(value, _slot=slot, _dirty=dirty):
            if _slot.dirty:
                _slot.next_value = value
            elif value != _slot.value:
                _slot.next_value = value
                _slot.dirty = True
                _dirty.append(_slot)

        return write_fn


class EventContext:
    """The compile-hook surface for a process hosted by the event
    kernel: the same hook, built over live signals.

    :meth:`read` returns the signal's :class:`Slot` — ``Signal._apply``
    keeps it in sync, so ``.value`` is the slot form
    of the current value — and :meth:`write` returns the signal's plain
    :meth:`~repro.hdl.Signal.drive`, so every write is an ordinary
    transaction of the running process, applied in the next delta
    cycle.
    """

    def read(self, signal: Signal) -> Slot:
        """Declare *signal* as an input; returns its slot."""
        return _slot_of(signal)

    def write(self, signal: Signal) -> Callable[[object], None]:
        """Declare *signal* as an output; returns its ``drive``."""
        return signal.drive


class CompiledKernel:
    """All compiled evaluations of one ``(simulator, clock)`` pair.

    Execution per rising clock edge (delta cycle 1):

    1. every evaluation runs in registration order, reading pre-edge
       slot values and staging writes into the dirty list;
    2. the *commit* process — scheduled as a zero-delay resume, so it
       executes in delta cycle 2, exactly where event-kernel drives
       apply — installs the changed values on their signals, fires the
       signal hooks (VCD etc.) and wakes sensitive/waiting processes
       into delta cycle 3.

    The kernel hangs off the clock signal itself
    (``clk._compiled_kernel``): both clocking schemes — the delta
    loop's changed-signal dispatch and the
    :class:`~repro.hdl.CycleEngine` edge loop — run
    :meth:`_on_edge` after the clock's update applies, so an idle edge
    (no output changes) costs the evaluations and nothing else: no
    process dispatch, no commit, no delta round.  The clock must be
    driven by the event kernel (``sim.add_clock`` or a CycleEngine),
    not by another compiled kernel's commit.
    """

    def __init__(self, sim: "Simulator", clk: Signal) -> None:
        if clk.width is not None:
            raise UnsupportedFeature(
                f"clock {clk.name!r} is a vector; compiled kernels "
                "need a scalar clock")
        self.sim = sim
        self.clk = clk
        #: driver identity of every commit-phase signal update
        self._driver = object()
        self._dirty: List[Slot] = []
        self._seq_evals: List[Callable[[], None]] = []
        # statistics (aggregated by Simulator.stats_snapshot)
        self.components = 0
        self.evals_run = 0
        self.commit_writes = 0
        self._commit_proc = CallbackProcess(
            f"compiled[{clk.name}].commit", lambda _sim: self._commit())
        if clk.sim is not sim:
            raise UnsupportedFeature(
                f"clock {clk.name!r} belongs to another simulator")
        clk._compiled_kernel = self

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _slot(self, signal: Signal) -> Slot:
        if signal.sim is not self.sim:
            raise UnsupportedFeature(
                f"signal {signal.name!r} belongs to another simulator")
        return _slot_of(signal)

    def add_seq(self, label: str,
                builder: Callable[[CompileContext],
                                  Callable[[], None]]) -> None:
        """Compile one sequential (clocked) process via *builder*."""
        ctx = CompileContext(self, label)
        evaluate = builder(ctx)
        if not callable(evaluate):
            raise CompileError(
                f"{label}: compile hook returned {evaluate!r}, "
                "expected an evaluation callable")
        for signal in ctx.writes:
            signal._compiled_slot.writer = label
        self._seq_evals.append(evaluate)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _on_edge(self) -> None:
        """One rising clock edge: run the sequential evaluations and,
        when any staged output changed, schedule the commit phase.

        Called by the edge-dispatch paths (delta loop and CycleEngine
        general edge) right after the clock's update has applied — the
        callers guarantee a rising edge.  Deliberately not a process:
        an idle edge costs the evaluations and nothing else.  The
        engine's whole-cycle path (``CycleEngine._run_quiet``) is this
        method unrolled over a stretch of edges, with the counting
        deferred to one settle per stretch and the commit run in place
        of scheduling it: keep the evaluation order and the
        ``evals_run`` / commit accounting of the two alike."""
        evals = self._seq_evals
        for evaluate in evals:
            evaluate()
        self.evals_run += len(evals)
        if self._dirty:
            self.sim._pending_resumes.append(self._commit_proc)

    def _commit(self) -> None:
        """Apply the dirty slots to their signals (one delta cycle's
        worth of updates), firing hooks and waking observers.  A
        signal no process is sensitive to or waits on skips the
        observer dispatch, and a vector written as an int takes its
        canonical form from the signal's normalisation memo."""
        dirty = self._dirty
        if not dirty:
            return
        pending = dirty[:]
        del dirty[:]
        sim = self.sim
        driver = self._driver
        now = sim.now
        hooks = sim.signal_hooks
        resumes = sim._pending_resumes
        waiters = sim._waiters
        # Observers woken here run in the NEXT delta cycle (they are
        # zero-delay resumes); .event must read True there.
        event_stamp = sim._delta_stamp + 1
        seen = None
        self.commit_writes += len(pending)
        for slot in pending:
            slot.dirty = False
            value = slot.next_value
            if value == slot.value:
                continue                    # reverted within one eval
            signal = slot.signal
            if signal.width is None:
                canonical = value if type(value) is str \
                    else signal._normalize(value)
            else:
                canonical = signal._norm_cache.get(value) \
                    if type(value) is int else None
                if canonical is None:
                    canonical = signal._normalize(value)
            drivers = signal._drivers
            drivers[driver] = canonical
            if len(drivers) > 1:
                # Foreign drivers appeared after compile: fall back to
                # full IEEE-1164 resolution for this signal.
                resolved = signal._resolve()
                if resolved == signal._value:
                    slot._sync(resolved)
                    continue
                canonical = resolved
                slot._sync(resolved)
            else:
                slot.value = value if type(canonical) is not str \
                    else canonical
            signal._previous = signal._value
            signal._value = canonical
            signal.change_count += 1
            signal.last_event_time = now
            if (signal._sensitive or signal._sensitive_rise
                    or waiters.get(id(signal))):
                if seen is None:
                    seen = set()
                if sim._wake_observers(signal, resumes, seen):
                    signal._event_delta = event_stamp
            if hooks:
                for hook in hooks:
                    hook(signal)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, int]:
        """Kernel counters (evaluations, commit-phase writes)."""
        return {
            "components": self.components,
            "seq_evals": len(self._seq_evals),
            "evals_run": self.evals_run,
            "commit_writes": self.commit_writes,
        }


def compile_kernel(sim: "Simulator", clk: Signal) -> CompiledKernel:
    """The :class:`CompiledKernel` of ``(sim, clk)``, created on first
    use and cached on ``sim._compiled_kernels``."""
    kernels = sim._compiled_kernels
    kernel = kernels.get(id(clk))
    if kernel is None:
        kernel = CompiledKernel(sim, clk)
        kernels[id(clk)] = kernel
    return kernel
