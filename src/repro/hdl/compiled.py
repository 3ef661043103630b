"""Compiled (levelized) RTL evaluation — the CCSS-style backend.

The event kernel charges every RTL process the full delta-cycle toll:
each output ``drive()`` normalises its value, schedules an update, and
the delta loop re-applies, re-resolves and re-dispatches it.  For
synthesisable components — clocked processes that read their inputs on
the rising edge and drive outputs for the next cycle — almost all of
that machinery is invariant and can be *compiled away*.

This module levelizes a component's process graph into straight-line
Python:

* every signal a compiled process touches is bound to a :class:`Slot`
  holding the *raw* value (``'0'``/``'1'``/… characters for scalars,
  plain ints for defined vectors, metavalue tuples otherwise) so reads
  cost one attribute load instead of a tuple walk;
* writes go through change-detecting writer closures into a dirty
  list — a no-change write costs one comparison, exactly mirroring the
  event kernel's no-event-on-no-change rule;
* one :class:`CompiledKernel` per ``(simulator, clock)`` runs all
  compiled sequential evaluations on the rising edge and then applies
  the dirty slots in a single *commit phase* that lands in the same
  delta cycle where event-backend ``drive()`` calls would apply — so a
  compiled component is trace-identical to its event twin;
* combinational evaluations are topologically sorted (Kahn) so a
  single ordered pass replaces delta iteration; registration order
  does not matter (an input may be written by a process registered
  later — the forward reference must resolve by initialisation); a
  cyclic graph raises :class:`CombinationalCycleError` naming the
  signals in the loop.

Every process with a compile hook is compiled (see
:class:`repro.rtl.Component`); when compilation raises
:class:`UnsupportedFeature` (for example a written signal that already
carries a foreign driver) the process runs its event body instead and
the fallback is counted on ``Simulator.compiled_fallbacks``.

Known divergence (intra-delta only, invisible to waveforms): the
commit wakes observers into the *following* delta cycle and marks
``Signal.event`` only for signals that actually woke an observer, so a
process polling ``.event`` on an unobserved compiled output inside the
same time step may read ``False`` where the event backend reads
``True``.  Final per-tick values — the :func:`repro.hdl.
compare_waveforms` bar — are identical; the equivalence suite in
``tests/rtl/test_compiled_equiv.py`` enforces it per component.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from .logic import LogicError, vector_to_int
from .processes import CallbackProcess
from .signal import Signal
from .simulator import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator

__all__ = ["Slot", "CompileError", "CombinationalCycleError",
           "UnsupportedFeature", "CompileContext", "CompiledKernel",
           "compile_kernel", "slot_int", "raw_value"]


class CompileError(SimulationError):
    """Raised when a process cannot be compiled; the
    :class:`UnsupportedFeature` subclass makes
    :class:`repro.rtl.Component` fall back to the event kernel."""


class CombinationalCycleError(CompileError):
    """Raised when the combinational dependency graph is cyclic; the
    message names the signals participating in the loop."""


class UnsupportedFeature(CompileError):
    """Raised for graphs the compiler does not cover (foreign drivers
    on a written signal, double writers, non-kernel combinational
    inputs, a non-scalar clock)."""


#: per-slot canonical-tuple -> int memo cap (mirrors Signal._norm_cache)
_INT_MEMO_LIMIT = 4096


class Slot:
    """The compiled backend's view of one signal.

    ``value`` holds the signal's current resolved value in raw form:
    the ``std_logic`` character for scalars, a plain int for fully
    defined vectors, the canonical metavalue tuple otherwise.  The
    kernel keeps it in sync with :attr:`Signal.value` in both
    directions (commit phase outward, :meth:`Signal._apply` inward for
    foreign drivers), so compiled reads never need a refresh phase.
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
    only if the whole builder succeeds, so an ``auto`` fallback leaves
    the kernel untouched.
    """

    def __init__(self, kernel: "CompiledKernel", label: str) -> None:
        self.kernel = kernel
        self.label = label
        #: signals read by this process (for combinational levelizing)
        self.reads: List[Signal] = []
        #: signals written by this process (staged until merge)
        self.writes: List[Signal] = []

    def read(self, signal: Signal) -> Slot:
        """Declare *signal* as an input; returns its slot."""
        self.reads.append(signal)
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


class CompiledKernel:
    """All compiled evaluations of one ``(simulator, clock)`` pair.

    Execution per rising clock edge (delta cycle 1):

    1. every sequential evaluation runs in registration order, reading
       pre-edge slot values and staging writes into the dirty list;
    2. the *commit* process — scheduled as a zero-delay resume, so it
       executes in delta cycle 2, exactly where event-backend drives
       apply — installs the changed values on their signals, fires the
       signal hooks (VCD etc.) and wakes sensitive/waiting processes
       into delta cycle 3;
    3. if combinational evaluations are registered, the commit then
       runs them once in topological order, committing after each
       evaluation so downstream evaluations in the same pass read
       fresh values (the levelized equivalent of delta iteration).

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
        self._slots: Dict[int, Slot] = {}
        self._dirty: List[Slot] = []
        self._seq_evals: List[Callable[[], None]] = []
        #: (label, eval, reads, writes) records of combinational
        #: processes; ``_comb_order`` holds the topologically sorted
        #: eval list rebuilt after each registration
        self._comb_entries: List[tuple] = []
        self._comb_order: List[Callable[[], None]] = []
        # statistics (aggregated by Simulator.stats_snapshot)
        self.components = 0
        self.evals_run = 0
        self.commit_writes = 0
        self._commit_proc = CallbackProcess(
            f"compiled[{clk.name}].commit", self._commit_cb)
        self._init_done = False
        if clk.sim is not sim:
            raise UnsupportedFeature(
                f"clock {clk.name!r} belongs to another simulator")
        clk._compiled_kernel = self
        if sim._initialized:
            # Simulator.initialize() already ran: nothing registered
            # yet, but mark the init phase done so late add_comb calls
            # evaluate immediately (like a late-added event process).
            self._init_done = True

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _slot(self, signal: Signal) -> Slot:
        if signal.sim is not self.sim:
            raise UnsupportedFeature(
                f"signal {signal.name!r} belongs to another simulator")
        slot = signal._compiled_slot
        if slot is None:
            slot = Slot(signal)
            signal._compiled_slot = slot
        return slot

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

    def add_comb(self, label: str,
                 builder: Callable[[CompileContext],
                                   Callable[[], None]]) -> None:
        """Compile one combinational process via *builder*.

        Combinational inputs must be written inside this kernel (or be
        compile-time constants): only then is "evaluate once after the
        sequential commit, in topological order" equivalent to the
        event kernel's delta iteration.  A read of a signal another
        process is registered to write *later* is a forward reference
        and is allowed until initialisation — so registration order
        does not matter — but a read of a signal carrying a foreign
        driver raises :class:`UnsupportedFeature` immediately, as does
        an input still unwritten once the simulator initialises.  A
        read/write cycle among the combinational processes (including
        a process reading its own output) raises
        :class:`CombinationalCycleError`.
        """
        ctx = CompileContext(self, label)
        evaluate = builder(ctx)
        if not callable(evaluate):
            raise CompileError(
                f"{label}: compile hook returned {evaluate!r}, "
                "expected an evaluation callable")
        entry = (label, evaluate, tuple(ctx.reads), tuple(ctx.writes))
        order = self._levelize(self._comb_entries + [entry],
                               require_resolved=self._init_done)
        for signal in ctx.writes:
            signal._compiled_slot.writer = label
        self._comb_entries.append(entry)
        self._comb_order = order
        if self._init_done:
            # Registered after initialisation: run once immediately,
            # like a late-added event process's pending first run.
            evaluate()
            self.evals_run += 1
            if self._dirty:
                self._commit()

    def _levelize(self, entries: Sequence[tuple],
                  require_resolved: bool = True) -> List[Callable]:
        """Kahn-sort *entries* by signal dataflow; validate inputs.

        With ``require_resolved=False`` (registration time, before the
        simulator initialises) an input that nothing writes *yet* is
        tolerated as a forward reference; an input with a foreign
        driver is always rejected.
        """
        staged_writers: Dict[int, str] = {}
        for label, _evaluate, _reads, writes in entries:
            for signal in writes:
                staged_writers[id(signal)] = label
        for label, _evaluate, reads, _writes in entries:
            for signal in reads:
                slot = signal._compiled_slot
                written = (slot is not None and slot.writer is not None) \
                    or id(signal) in staged_writers
                if written or signal is self.clk:
                    continue
                if signal._drivers:
                    raise UnsupportedFeature(
                        f"{label}: combinational input {signal.name!r} "
                        f"has {len(signal._drivers)} driver(s) outside "
                        "the compiled kernel")
                if require_resolved:
                    raise UnsupportedFeature(
                        f"{label}: combinational input {signal.name!r} "
                        "is not written inside the compiled kernel")
        # edges: producer entry -> consumer entry; a self-edge (a
        # process reading its own output) is a combinational cycle
        producer_of: Dict[int, int] = {}
        for index, (_l, _e, _r, writes) in enumerate(entries):
            for signal in writes:
                producer_of[id(signal)] = index
        indegree = [0] * len(entries)
        consumers: List[List[int]] = [[] for _ in entries]
        for index, (_l, _e, reads, _w) in enumerate(entries):
            for signal in reads:
                producer = producer_of.get(id(signal))
                if producer is not None:
                    consumers[producer].append(index)
                    indegree[index] += 1
        # Kahn with a sorted ready set: topological order, ties broken
        # by registration index (deterministic levelizing).
        ready = sorted(i for i, degree in enumerate(indegree)
                       if degree == 0)
        order: List[int] = []
        while ready:
            index = ready.pop(0)
            order.append(index)
            for consumer in consumers[index]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    insort(ready, consumer)
        if len(order) != len(entries):
            remaining = [i for i in range(len(entries))
                         if indegree[i] > 0]
            names = sorted({
                signal.name
                for i in remaining
                for signal in entries[i][3]
                if any(signal in entries[j][2] for j in remaining)})
            raise CombinationalCycleError(
                "combinational cycle through signal(s): "
                + ", ".join(names))
        return [entries[i][1] for i in order]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        """Initialisation run (idempotent): resolve forward references
        and evaluate combinational logic once, like the event kernel's
        initial run of every process.  Called by
        :meth:`Simulator.initialize`."""
        if self._init_done:
            return
        self._init_done = True
        if self._comb_entries:
            # Forward references tolerated at registration time must
            # have found their writer by now.
            self._comb_order = self._levelize(self._comb_entries,
                                              require_resolved=True)
            self._run_comb()

    def _on_edge(self) -> None:
        """One rising clock edge: run the sequential evaluations and,
        when any staged output changed, schedule the commit phase.

        Called by the edge-dispatch paths (delta loop and CycleEngine
        general edge) right after the clock's update has applied — the
        callers guarantee a rising edge.  Deliberately not a process:
        an idle edge costs the evaluations and nothing else.  The
        engine's whole-cycle path (``CycleEngine._run_quiet``) is this
        method unrolled over a stretch of edges: keep the two alike."""
        evals = self._seq_evals
        for evaluate in evals:
            evaluate()
        self.evals_run += len(evals)
        if self._dirty:
            self.sim._pending_resumes.append(self._commit_proc)

    def _commit_cb(self, _sim: "Simulator") -> None:
        self._commit()
        self._run_comb()

    def _run_comb(self) -> None:
        """One levelized combinational pass: evaluate in topological
        order, committing after each evaluation so downstream
        evaluations read the fresh values."""
        order = self._comb_order
        if not order:
            return
        for evaluate in order:
            evaluate()
            if self._dirty:
                self._commit()
        self.evals_run += len(order)

    def _commit(self) -> None:
        """Apply the dirty slots to their signals (one delta cycle's
        worth of updates), firing hooks and waking observers."""
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
        # Observers woken here run in the NEXT delta cycle (they are
        # zero-delay resumes); .event must read True there.
        event_stamp = sim._delta_stamp + 1
        seen: set = set()
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
            woken = sim._wake_observers(signal, resumes, seen)
            if woken:
                signal._event_delta = event_stamp
            if hooks:
                for hook in hooks:
                    hook(signal)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, int]:
        """Kernel counters (levelized evals, commit-phase writes)."""
        return {
            "components": self.components,
            "seq_evals": len(self._seq_evals),
            "comb_evals": len(self._comb_entries),
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
