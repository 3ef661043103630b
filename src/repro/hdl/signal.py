"""Signals: the state carriers of the HDL simulator.

A :class:`Signal` models a VHDL ``std_logic`` / ``std_logic_vector``
object: it has a *resolved* current value computed from the values of
all drivers, scheduled updates take effect in the next delta cycle (or
after an explicit delay), and value changes produce *events* that wake
sensitive processes.

Multiple drivers are resolved with the IEEE 1164 table, which is what
lets the test-board model share tristate byte lanes between the board
and the device under test.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union, TYPE_CHECKING

from .logic import (LogicError, resolve_many, to_vector, vector_to_int)

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator
    from .processes import Process

__all__ = ["Signal", "DriveError"]

Value = Union[str, Tuple[str, ...]]


class DriveError(Exception):
    """Raised for malformed drive values or widths."""


class Signal:
    """A resolved, event-producing simulation object.

    Args:
        sim: owning simulator.
        name: hierarchical name (used in VCD dumps and error messages).
        width: ``None`` for a scalar ``std_logic``; an int for a
            ``std_logic_vector(width-1 downto 0)``.
        init: initial value (defaults to 'U' / all-'U').

    Reading:
        ``sig.value`` — current resolved value ('U'... char or tuple).
        ``sig.as_int()`` — integer view of a defined vector.
        ``sig.event`` — True during the delta cycle after a change.

    Writing: ``sig.drive(value, delay=0)`` from inside a process (the
    running process is the driver) or from test code (anonymous
    driver).  ``sig.release()`` removes the caller's driver ('Z').
    """

    __slots__ = ("sim", "name", "width", "_value", "_previous",
                 "_drivers", "_sensitive", "_sensitive_rise",
                 "_event_delta", "last_event_time", "change_count",
                 "_norm_cache", "_driver_gen", "_compiled_slot",
                 "_compiled_kernel")

    #: normalisation memo cap per signal (see :meth:`_normalize`)
    _NORM_CACHE_LIMIT = 4096

    def __init__(self, sim: "Simulator", name: str,
                 width: Optional[int] = None,
                 init: Optional[Value] = None) -> None:
        self.sim = sim
        self.name = name
        self.width = width
        #: memo of already-normalised drive values (vector signals)
        self._norm_cache: Dict[object, Value] = {}
        if init is None:
            init = "U" if width is None else ("U",) * width
        self._value: Value = self._normalize(init)
        self._previous: Value = self._value
        #: driver identity -> currently driven value
        self._drivers: Dict[object, Value] = {}
        #: processes statically sensitive to this signal
        self._sensitive: List["Process"] = []
        #: processes sensitive to rising edges only (woken when an
        #: event leaves the signal at '1' — the ``edge="rise"`` form
        #: of :meth:`repro.hdl.Simulator.add_process`)
        self._sensitive_rise: List["Process"] = []
        #: driver identity -> inertial-preemption generation; bumped by
        #: the kernel's O(1) cancellation (scheduled updates carrying a
        #: stale generation are tombstones, dropped when popped)
        self._driver_gen: Dict[object, int] = {}
        self._event_delta: int = -1
        self.last_event_time: Optional[int] = None
        self.change_count = 0
        #: compiled-backend view of this signal (see
        #: :mod:`repro.hdl.compiled`); kept in sync on every change
        self._compiled_slot = None
        #: the CompiledKernel clocked by this signal, if any — checked
        #: by the edge-dispatch paths after the signal's updates apply
        self._compiled_kernel = None
        sim._register_signal(self)

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------
    @property
    def value(self) -> Value:
        """The current resolved value."""
        return self._value

    @property
    def previous(self) -> Value:
        """The value before the most recent event."""
        return self._previous

    def as_int(self) -> int:
        """Unsigned integer view; raises LogicError on metavalues."""
        if self.width is None:
            if self._value == "1":
                return 1
            if self._value == "0":
                return 0
            raise LogicError(
                f"signal {self.name}: scalar value {self._value!r} "
                "is not 0/1")
        return vector_to_int(self._value)

    @property
    def event(self) -> bool:
        """True while the current delta cycle follows a value change."""
        return self._event_delta == self.sim._delta_stamp

    def rising(self) -> bool:
        """VHDL ``rising_edge``: an event that left the signal at '1'."""
        return self.event and self._value == "1"

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def drive(self, value: Union[Value, int], delay: int = 0,
              inertial: bool = False) -> None:
        """Schedule this signal to take *value* after *delay* ticks.

        ``delay=0`` means "next delta cycle", exactly like a VHDL
        signal assignment.  The driver identity is the running process
        (or the anonymous test-bench driver outside processes).

        ``inertial=True`` gives VHDL's default *inertial* semantics:
        the new transaction cancels this driver's not-yet-applied
        future transactions on the signal, so pulses shorter than the
        delay are swallowed.  The default is *transport* semantics
        (every scheduled transaction applies).
        """
        normalized = self._normalize(value)
        driver = self.sim._current_driver()
        if inertial:
            self.sim._cancel_pending_updates(self, driver)
        self.sim._schedule_update(self, driver, normalized, delay)

    def release(self, delay: int = 0) -> None:
        """Remove the caller's driver (drive high-impedance)."""
        driver = self.sim._current_driver()
        self.sim._schedule_update(self, driver, None, delay)

    def normalize(self, value: Union[Value, int]) -> Value:
        """Validate and convert *value* to this signal's canonical
        form (the representation :meth:`drive` schedules).  Public for
        stimulus compilers that precompute transition lists for
        :meth:`repro.hdl.Simulator.schedule_waveform` with
        ``normalized=True``; memoised per signal for vectors."""
        return self._normalize(value)

    # ------------------------------------------------------------------
    # Kernel interface
    # ------------------------------------------------------------------
    def _normalize(self, value: Union[Value, int]) -> Value:
        if self.width is None:
            if isinstance(value, str) and len(value) == 1:
                if value not in "UX01ZWLH-":
                    raise DriveError(
                        f"signal {self.name}: bad scalar {value!r}")
                return value
            if isinstance(value, int):
                if value in (0, 1):
                    return "1" if value else "0"
                raise DriveError(
                    f"signal {self.name}: scalar int must be 0/1, "
                    f"got {value}")
            raise DriveError(
                f"signal {self.name}: bad scalar value {value!r}")
        # Vector path: memoise validated conversions per signal — the
        # same octets/words recur on every bus and cell stream, and
        # to_vector's per-bit validation dominates drive() otherwise.
        cache = self._norm_cache
        try:
            cached = cache.get(value)
        except TypeError:            # unhashable (e.g. a list literal)
            cached = None
            cacheable = False
        else:
            cacheable = True
        if cached is not None:
            return cached
        try:
            vector = to_vector(value, self.width)
        except LogicError as exc:
            raise DriveError(f"signal {self.name}: {exc}") from exc
        if cacheable and len(cache) < self._NORM_CACHE_LIMIT:
            cache[value] = vector
        return vector

    def _apply(self, driver: object, value: Optional[Value]) -> bool:
        """Install a driver value and recompute the resolution.

        Returns True when the resolved value changed (an event).
        """
        drivers = self._drivers
        if value is None:
            drivers.pop(driver, None)
            resolved = self._resolve()
        else:
            drivers[driver] = value
            # Single-driver fast path: the driven (already normalised)
            # value IS the resolution — no table walk, no list/zip.
            resolved = value if len(drivers) == 1 else self._resolve()
        if resolved == self._value:
            return False
        self._previous = self._value
        self._value = resolved
        self.change_count += 1
        if self._compiled_slot is not None:
            self._compiled_slot._sync(resolved)
        return True

    def _resolve(self) -> Value:
        drivers = self._drivers
        if not drivers:
            # No drivers: a signal keeps its current value (VHDL keeps
            # the initial value of an undriven signal).
            return self._value
        values = list(drivers.values())
        if len(values) == 1:
            return values[0]
        if self.width is None:
            return resolve_many(values)
        return tuple(resolve_many(column) for column in zip(*values))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        shown = (self._value if self.width is None
                 else "".join(self._value))
        return f"Signal({self.name}={shown})"
