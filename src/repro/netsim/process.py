"""Process domain: communicating extended finite state machines.

The paper's process domain "specifies the behavior of processing nodes
as communicating extended FSMs".  :class:`ProcessModel` reproduces the
OPNET proto-C style: a process is an FSM whose states are *forced*
(executed and immediately exited) or *unforced* (the process blocks in
the state until the next interrupt); transitions carry guard conditions
evaluated against the triggering interrupt.

Processes live inside a :class:`~repro.netsim.node.ProcessorModule` and
receive :class:`~repro.netsim.events.Interrupt` objects: STREAM
interrupts for packet arrivals, SELF interrupts for timers, BEGIN/END
at simulation boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from .events import Event, Interrupt, InterruptKind

if TYPE_CHECKING:  # pragma: no cover
    from .node import ProcessorModule

__all__ = ["State", "Transition", "ProcessModel", "FsmError"]


class FsmError(Exception):
    """Raised on malformed FSM definitions or illegal transitions."""


@dataclass
class State:
    """One FSM state.

    Attributes:
        name: unique state name.
        enter: executive run on state entry (receives the process).
        exit: executive run on state exit.
        forced: a forced state immediately evaluates its outgoing
            transitions after the enter executive; an unforced state
            blocks until the next interrupt.
    """

    name: str
    enter: Optional[Callable[["ProcessModel"], None]] = None
    exit: Optional[Callable[["ProcessModel"], None]] = None
    forced: bool = False


@dataclass
class Transition:
    """A guarded transition between two states.

    The guard receives ``(process, interrupt)`` and returns truth; a
    ``None`` guard is the default transition taken when no other guard
    matches.
    """

    source: str
    target: str
    guard: Optional[Callable[["ProcessModel", Optional[Interrupt]], bool]] = None


class ProcessModel:
    """A communicating extended FSM driven by interrupts.

    Subclasses (or direct instantiation) populate states and transitions
    via :meth:`add_state` and :meth:`add_transition`, then the hosting
    module calls :meth:`start` once and :meth:`deliver` per interrupt.

    State variables live in :attr:`sv`, mirroring OPNET state variables.
    """

    def __init__(self, name: str = "process") -> None:
        self.name = name
        self.module: Optional["ProcessorModule"] = None
        self.sv: Dict[str, Any] = {}
        self._states: Dict[str, State] = {}
        self._transitions: Dict[str, List[Transition]] = {}
        self._initial: Optional[str] = None
        self._current: Optional[str] = None
        self._last_interrupt: Optional[Interrupt] = None
        self._pending_self: List[Event] = []
        #: names of every state entered at least once — the FSM
        #: coverage signal consumed by repro.obs (distributed
        #: telemetry / the future coverage-driven scenario generator)
        self.states_visited: set = set()

    # ------------------------------------------------------------------
    # FSM construction
    # ------------------------------------------------------------------
    def add_state(self, state: State, initial: bool = False) -> State:
        """Register *state*; the first state or ``initial=True`` becomes
        the FSM entry state."""
        if state.name in self._states:
            raise FsmError(f"duplicate state {state.name!r}")
        self._states[state.name] = state
        self._transitions.setdefault(state.name, [])
        if initial or self._initial is None:
            self._initial = state.name
        return state

    def add_transition(self, source: str, target: str,
                       guard: Optional[Callable] = None) -> Transition:
        """Register a guarded transition from *source* to *target*."""
        for end in (source, target):
            if end not in self._states:
                raise FsmError(f"unknown state {end!r}")
        tr = Transition(source, target, guard)
        self._transitions[source].append(tr)
        return tr

    # ------------------------------------------------------------------
    # Runtime context helpers (available inside executives)
    # ------------------------------------------------------------------
    @property
    def state(self) -> Optional[str]:
        """Name of the current FSM state."""
        return self._current

    @property
    def interrupt(self) -> Optional[Interrupt]:
        """The interrupt currently being processed."""
        return self._last_interrupt

    @property
    def now(self) -> float:
        """Current simulated time of the hosting kernel."""
        self._require_module()
        return self.module.node.kernel.now

    def send(self, packet, stream: int = 0, delay: float = 0.0) -> None:
        """Send *packet* on output *stream* (optionally after *delay*)."""
        self._require_module()
        self.module.send(packet, stream, delay)

    def schedule_self(self, delay: float, code: int = 0,
                      data: Any = None) -> Event:
        """Schedule a SELF interrupt *delay* time units from now."""
        self._require_module()
        interrupt = Interrupt(kind=InterruptKind.SELF, code=code, data=data)
        kernel = self.module.node.kernel
        # only live timers are kept: cancelled ones are dropped here, a
        # delivered one removes itself before it is delivered
        pending = self._pending_self
        pending[:] = [e for e in pending if not e.cancelled]

        def fire() -> None:
            pending.remove(event)
            self.deliver(interrupt)

        event = kernel.schedule_after(delay, fire)
        pending.append(event)
        return event

    def cancel_self_interrupts(self) -> int:
        """Cancel every pending SELF interrupt; returns how many."""
        live = [e for e in self._pending_self if not e.cancelled]
        for event in live:
            event.cancel()
        self._pending_self.clear()
        return len(live)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Enter the initial state and deliver the BEGIN interrupt."""
        if self._initial is None:
            raise FsmError(f"process {self.name!r} has no states")
        self._current = None
        self._enter(self._initial)
        if self._states[self._current].forced:
            self._last_interrupt = Interrupt(kind=InterruptKind.BEGIN)
            self._follow_transitions()
        else:
            self.deliver(Interrupt(kind=InterruptKind.BEGIN))

    def deliver(self, interrupt: Interrupt) -> None:
        """Deliver *interrupt*: evaluate transitions out of the current
        (unforced) state and follow the matching one."""
        if self._current is None:
            raise FsmError(f"process {self.name!r} not started")
        self._last_interrupt = interrupt
        self._follow_transitions()

    def _follow_transitions(self) -> None:
        # Forced states chain immediately; guard against cycles.
        for _ in range(len(self._states) + 1):
            state = self._states[self._current]
            target = self._select_target(state)
            if target is None:
                return
            self._exit(state)
            self._enter(target)
            if not self._states[self._current].forced:
                return
        raise FsmError(
            f"process {self.name!r}: forced-state cycle detected at "
            f"{self._current!r}")

    def _select_target(self, state: State) -> Optional[str]:
        default: Optional[str] = None
        for tr in self._transitions[state.name]:
            if tr.guard is None:
                if default is not None:
                    raise FsmError(
                        f"state {state.name!r} has two default transitions")
                default = tr.target
            elif tr.guard(self, self._last_interrupt):
                return tr.target
        if default is not None:
            return default
        if state.forced:
            raise FsmError(
                f"forced state {state.name!r} has no enabled transition")
        return None

    def state_names(self) -> List[str]:
        """All registered state names (FSM coverage denominator)."""
        return list(self._states)

    def _enter(self, name: str) -> None:
        self._current = name
        self.states_visited.add(name)
        state = self._states[name]
        if state.enter is not None:
            state.enter(self)

    def _exit(self, state: State) -> None:
        if state.exit is not None:
            state.exit(self)

    def _require_module(self) -> None:
        if self.module is None:
            raise FsmError(
                f"process {self.name!r} is not attached to a module")
