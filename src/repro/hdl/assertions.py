"""Assertion and coverage library for HDL test benches.

The paper motivates the whole environment with the cost of test-bench
construction and the explosion of test-vector complexity; assertion
checkers and coverage collectors are the standard instruments for
judging what a vector set actually exercised.  This module provides:

* :class:`AssertionEngine` — clocked immediate assertions
  (``always``/``never``);
* :class:`ToggleCoverage` — per-bit 0→1 / 1→0 toggle collection.

Failures are recorded (with times) and optionally raised immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from .signal import Signal
from .simulator import Simulator

__all__ = ["AssertionEngine", "AssertionFailure", "HdlAssertionError",
           "ToggleCoverage"]

Predicate = Callable[[], bool]


class HdlAssertionError(AssertionError):
    """Raised when a check fails and the engine is strict."""


@dataclass(frozen=True)
class AssertionFailure:
    """One recorded check failure."""

    name: str
    time: int
    message: str


class AssertionEngine:
    """A clocked checker bound to one clock signal.

    Args:
        sim: the simulator.
        clk: checks evaluate on every rising edge of this clock.
        strict: raise :class:`HdlAssertionError` on the first failure
            (otherwise failures only accumulate in :attr:`failures`).
    """

    def __init__(self, sim: Simulator, clk: Signal,
                 strict: bool = False) -> None:
        self.sim = sim
        self.clk = clk
        self.strict = strict
        self.failures: List[AssertionFailure] = []
        self.checks_evaluated = 0
        self._always: List[Tuple[str, Predicate, str]] = []
        self._never: List[Tuple[str, Predicate, str]] = []
        sim.add_process("assertions", self._tick, sensitivity=[clk])

    # ------------------------------------------------------------------
    # Check registration
    # ------------------------------------------------------------------
    def assert_always(self, name: str, condition: Predicate,
                      message: str = "condition violated") -> None:
        """*condition* must hold on every rising edge."""
        self._always.append((name, condition, message))

    def assert_never(self, name: str, condition: Predicate,
                     message: str = "forbidden condition seen") -> None:
        """*condition* must never hold on a rising edge."""
        self._never.append((name, condition, message))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def passed(self) -> bool:
        """True while no check has failed."""
        return not self.failures

    def check(self) -> None:
        """Raise if any failure was recorded (end-of-test gate)."""
        if self.failures:
            first = self.failures[0]
            raise HdlAssertionError(
                f"{len(self.failures)} assertion failure(s); first: "
                f"[{first.name}] at t={first.time}: {first.message}")

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _fail(self, name: str, message: str) -> None:
        failure = AssertionFailure(name=name, time=self.sim.now,
                                   message=message)
        self.failures.append(failure)
        if self.strict:
            raise HdlAssertionError(
                f"[{name}] at t={failure.time}: {message}")

    def _tick(self, _sim: Simulator) -> None:
        if not self.clk.rising():
            return
        for name, condition, message in self._always:
            self.checks_evaluated += 1
            if not condition():
                self._fail(name, message)
        for name, condition, message in self._never:
            self.checks_evaluated += 1
            if condition():
                self._fail(name, message)


class ToggleCoverage:
    """Per-bit toggle coverage of a set of signals.

    A bit is *covered* once it has been seen both rising and falling.
    """

    def __init__(self, sim: Simulator,
                 signals: Sequence[Signal]) -> None:
        self.signals = list(signals)
        self._previous: Dict[int, Any] = {
            id(s): s.value for s in self.signals}
        #: (signal id, bit index) -> [rise_seen, fall_seen]
        self._bits: Dict[Tuple[int, int], List[bool]] = {}
        for signal in self.signals:
            width = 1 if signal.width is None else signal.width
            for bit in range(width):
                self._bits[(id(signal), bit)] = [False, False]
        sim.signal_hooks.append(self._on_change)

    def _on_change(self, signal: Signal) -> None:
        key = id(signal)
        if key not in self._previous:
            return
        old = self._previous[key]
        new = signal.value
        self._previous[key] = new
        old_bits = [old] if signal.width is None else list(old)
        new_bits = [new] if signal.width is None else list(new)
        for index, (a, b) in enumerate(zip(old_bits, new_bits)):
            if a == "0" and b == "1":
                self._bits[(key, index)][0] = True
            elif a == "1" and b == "0":
                self._bits[(key, index)][1] = True

    @property
    def total_bits(self) -> int:
        """Number of tracked bits."""
        return len(self._bits)

    @property
    def covered_bits(self) -> int:
        """Bits that toggled in both directions."""
        return sum(1 for rise, fall in self._bits.values()
                   if rise and fall)

    def coverage(self) -> float:
        """Fraction of bits fully toggled (1.0 when nothing tracked)."""
        if not self._bits:
            return 1.0
        return self.covered_bits / self.total_bits

    def uncovered(self) -> List[str]:
        """Human-readable list of not-fully-toggled bits."""
        names = {id(s): s.name for s in self.signals}
        report = []
        for (key, bit), (rise, fall) in sorted(
                self._bits.items(), key=lambda kv: (names[kv[0][0]],
                                                    kv[0][1])):
            if not (rise and fall):
                missing = []
                if not rise:
                    missing.append("rise")
                if not fall:
                    missing.append("fall")
                report.append(f"{names[key]}[{bit}]: no {'/'.join(missing)}")
        return report
