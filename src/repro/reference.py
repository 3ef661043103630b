"""Reference paths — test oracles, not production code.

Nothing else in ``repro`` imports this module; the test suites do.  It
holds two kinds of oracle.

**Predecessors of the HDL production path.**  The HDL side has one
production path: the :class:`~repro.hdl.CycleEngine` clock, compiled
RTL processes and :class:`~repro.rtl.CellSender`'s bulk waveform
playback.  Each replaced a slower predecessor that it is
trace-identical to, and the equivalence suites keep proving that by
running the predecessor next to it.

* :class:`GeneratorCellSender` — the behavioural generator that drives
  one octet per clock, the oracle of ``CellSender``
  (``tests/rtl/test_bulk_equiv.py``).
* :class:`EventClockedEnvironment` — the co-verification environment on
  the kernel's event-driven generator clock (``Simulator.add_clock``),
  the oracle of the cycle engine at system level
  (``tests/core/test_determinism.py``).

The third predecessor needs no code here: setting
``Simulator.rtl_backend = "event"`` before building components runs
each component's one compile hook as a rising-edge process on the event
kernel (``tests/rtl/test_compiled_equiv.py``).  It checks the compiled
kernel, not the component logic; that is checked against the
:mod:`repro.atm` reference models and the :mod:`repro.behav` twins.

**Instruments the equivalence suites compare with.**

* :class:`VcdWriter`, :class:`VcdData`, :func:`compare_waveforms`
  (with :class:`WaveformDifference` and :class:`VcdFormatError`) — dump
  selected signals as IEEE 1364 VCD, parse a dump back and diff two of
  them change by change; the waveform bar the backend and playback
  equivalence suites hold.
* :class:`LeakyBucket` — the continuous-state formulation of GCRA, the
  oracle of :class:`repro.atm.VirtualScheduling` (the textbook
  equivalence, ``tests/atm/test_policing_switching.py``).
* :func:`flow_tracks`, :func:`flow_processes` — read the flow-event
  chains of an exported Chrome trace back, per track and per process.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Deque, Dict, List, Optional, Sequence, Set,
                    TextIO, Tuple, Union)

from .core.environment import CoVerificationEnvironment
from .hdl.processes import RisingEdge
from .hdl.signal import Signal
from .hdl.simulator import Simulator
from .rtl.cell_stream import CELL_OCTETS, CellStreamPort
from .rtl.component import Component

__all__ = ["GeneratorCellSender", "EventClockedEnvironment",
           "VcdWriter", "VcdData", "VcdFormatError", "WaveformDifference",
           "compare_waveforms", "LeakyBucket", "flow_tracks",
           "flow_processes"]


class GeneratorCellSender(Component):
    """Clocks queued cells onto a stream port, one process resumption
    and three ``drive()`` calls per octet.

    Same constructor, :meth:`send`, :attr:`backlog`, ``cells_sent`` and
    ``on_cell_sent`` as :class:`repro.rtl.CellSender`, and the same
    waveform on the port; it needs no registered clock geometry, only
    events on *clk*.
    """

    def __init__(self, sim: Simulator, name: str, clk: Signal,
                 port: Optional[CellStreamPort] = None,
                 gap_octets: int = 0) -> None:
        super().__init__(sim, name)
        self.port = port if port is not None else CellStreamPort(sim, name)
        self.gap_octets = gap_octets
        self._queue: Deque[Sequence[int]] = deque()
        self.cells_sent = 0
        self.on_cell_sent: Optional[Callable[[], None]] = None
        sim.add_generator(f"{name}.sender", self._run(clk))

    def send(self, octets: Sequence[int]) -> None:
        """Queue one cell (a 53-octet sequence) for transmission."""
        if len(octets) != CELL_OCTETS:
            raise ValueError(
                f"a cell is {CELL_OCTETS} octets, got {len(octets)}")
        self._queue.append(list(octets))

    @property
    def backlog(self) -> int:
        """Cells queued but not yet picked up for transmission."""
        return len(self._queue)

    def _run(self, clk: Signal):
        edge = RisingEdge(clk)
        queue = self._queue
        atmdata = self.port.atmdata
        cellsync = self.port.cellsync
        valid = self.port.valid
        while True:
            if not queue:
                valid.drive("0")
                cellsync.drive("0")
                yield edge
                continue
            octets = queue.popleft()
            # Drive one octet after each rising edge; the consumer
            # samples it on the following edge.
            for index, octet in enumerate(octets):
                atmdata.drive(octet)
                cellsync.drive("1" if index == 0 else "0")
                valid.drive("1")
                yield edge
            self.cells_sent += 1
            if self.on_cell_sent is not None:
                self.on_cell_sent()
            valid.drive("0")
            cellsync.drive("0")
            for _ in range(self.gap_octets):
                yield edge


class EventClockedEnvironment(CoVerificationEnvironment):
    """A :class:`~repro.core.CoVerificationEnvironment` whose DUT clock
    is the kernel's event-driven generator clock: every edge is a heap
    event and a process resumption.  Same arguments, same results."""

    def _start_clock(self) -> None:
        self.hdl.add_clock(self.clk,
                           period=self.timebase.clock_period_ticks)


_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Short printable VCD identifier for signal *index*."""
    chars = []
    index += 1
    while index > 0:
        index, rem = divmod(index - 1, len(_ID_CHARS))
        chars.append(_ID_CHARS[rem])
    return "".join(chars)


class VcdWriter:
    """Streams signal changes of a simulator into a VCD file.

    Usage::

        sim = Simulator()
        clk = sim.signal("clk", init="0")
        with VcdWriter(sim, "run.vcd", [clk]) as vcd:
            sim.add_clock(clk, period=10)
            sim.run(until=100)
    """

    def __init__(self, sim: Simulator, path: Union[str, Path],
                 signals: Optional[Sequence[Signal]] = None,
                 timescale: str = "1ns") -> None:
        self.sim = sim
        self.path = Path(path)
        self.signals = list(signals if signals is not None else sim.signals)
        self._ids: Dict[int, str] = {
            id(sig): _identifier(i) for i, sig in enumerate(self.signals)}
        self._handle: Optional[TextIO] = None
        self._last_dumped_time: Optional[int] = None
        self._timescale = timescale
        self.changes_written = 0

    # -- lifecycle ---------------------------------------------------------
    def open(self) -> "VcdWriter":
        """Write the header, dump initial values, attach to the kernel."""
        self._handle = self.path.open("w")
        self._write_header()
        self.sim.signal_hooks.append(self._on_change)
        return self

    def close(self) -> None:
        """Detach from the kernel and close the file."""
        if self._handle is None:
            return
        if self._on_change in self.sim.signal_hooks:
            self.sim.signal_hooks.remove(self._on_change)
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "VcdWriter":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ---------------------------------------------------------
    def _write_header(self) -> None:
        out = self._handle
        out.write("$date CASTANET reproduction $end\n")
        out.write(f"$timescale {self._timescale} $end\n")
        out.write("$scope module top $end\n")
        for signal in self.signals:
            width = 1 if signal.width is None else signal.width
            ident = self._ids[id(signal)]
            name = signal.name.replace(" ", "_")
            out.write(f"$var wire {width} {ident} {name} $end\n")
        out.write("$upscope $end\n$enddefinitions $end\n")
        out.write("$dumpvars\n")
        for signal in self.signals:
            out.write(self._format(signal))
        out.write("$end\n")
        self._last_dumped_time = None

    def _format(self, signal: Signal) -> str:
        ident = self._ids[id(signal)]
        if signal.width is None:
            return f"{self._vcd_bit(signal.value)}{ident}\n"
        bits = "".join(self._vcd_bit(b) for b in signal.value)
        return f"b{bits} {ident}\n"

    @staticmethod
    def _vcd_bit(bit: str) -> str:
        if bit in "01":
            return bit
        if bit in "Zz":
            return "z"
        return "x"

    def _on_change(self, signal: Signal) -> None:
        if id(signal) not in self._ids or self._handle is None:
            return
        if self._last_dumped_time != self.sim.now:
            self._handle.write(f"#{self.sim.now}\n")
            self._last_dumped_time = self.sim.now
        self._handle.write(self._format(signal))
        self.changes_written += 1


class VcdFormatError(ValueError):
    """Raised on malformed VCD input."""


@dataclass(frozen=True)
class WaveformDifference:
    """One divergence between two waveforms."""

    signal: str
    time: int
    value_a: Optional[str]
    value_b: Optional[str]


class VcdData:
    """A parsed value-change dump.

    Attributes:
        timescale: the declared timescale string.
        widths: signal name -> bit width.
        changes: signal name -> [(time, value string)] — value strings
            are VCD-style: scalars like ``"1"``/``"x"``, vectors like
            ``"0101"`` (no ``b`` prefix).
    """

    def __init__(self) -> None:
        self.timescale = ""
        self.widths: Dict[str, int] = {}
        self.changes: Dict[str, List[Tuple[int, str]]] = {}

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, path: Union[str, Path]) -> "VcdData":
        """Parse a VCD file (the subset VcdWriter emits plus common
        variants)."""
        data = cls()
        ids: Dict[str, str] = {}
        current_time = 0
        in_header = True
        text = Path(path).read_text()
        tokens = iter(text.split("\n"))
        for raw_line in tokens:
            line = raw_line.strip()
            if not line:
                continue
            if in_header:
                if line.startswith("$timescale"):
                    data.timescale = line.replace("$timescale", "") \
                        .replace("$end", "").strip()
                elif line.startswith("$var"):
                    parts = line.split()
                    if len(parts) < 6:
                        raise VcdFormatError(f"bad $var line: {line!r}")
                    width = int(parts[2])
                    ident = parts[3]
                    name = parts[4]
                    ids[ident] = name
                    data.widths[name] = width
                    data.changes[name] = []
                elif line.startswith("$enddefinitions"):
                    in_header = False
                continue
            if line.startswith("$"):
                continue  # $dumpvars / $end markers
            if line.startswith("#"):
                try:
                    current_time = int(line[1:])
                except ValueError:
                    raise VcdFormatError(f"bad time stamp {line!r}")
                continue
            data._apply_change(line, ids, current_time)
        if in_header:
            raise VcdFormatError(f"{path}: no $enddefinitions found")
        return data

    def _apply_change(self, line: str, ids: Dict[str, str],
                      time: int) -> None:
        if line[0] in "01xXzZ":
            value, ident = line[0].lower(), line[1:].strip()
        elif line[0] in "bB":
            try:
                value, ident = line[1:].split()
            except ValueError:
                raise VcdFormatError(f"bad vector change {line!r}")
            value = value.lower()
        else:
            raise VcdFormatError(f"unparseable change {line!r}")
        name = ids.get(ident)
        if name is None:
            raise VcdFormatError(f"unknown identifier {ident!r}")
        self.changes[name].append((time, value))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def signals(self) -> List[str]:
        """Names of all dumped signals."""
        return sorted(self.widths)

    def value_at(self, name: str, time: int) -> Optional[str]:
        """The signal's value at *time* (last change at or before it),
        or ``None`` before the first recorded change."""
        history = self.changes.get(name)
        if history is None:
            raise KeyError(f"no signal {name!r} in the dump")
        value = None
        for change_time, change_value in history:
            if change_time > time:
                break
            value = change_value
        return value

    def edges(self, name: str) -> int:
        """Number of recorded value changes of *name* (after the
        initial dumpvars value)."""
        history = self.changes.get(name)
        if history is None:
            raise KeyError(f"no signal {name!r} in the dump")
        return max(0, len(history) - 1)

    def last_time(self) -> int:
        """Largest time stamp in the dump."""
        latest = 0
        for history in self.changes.values():
            if history:
                latest = max(latest, history[-1][0])
        return latest


def compare_waveforms(a: VcdData, b: VcdData,
                      signals: Optional[Sequence[str]] = None,
                      ) -> List[WaveformDifference]:
    """Compare two dumps signal by signal, change by change.

    Returns the list of differences (empty == equivalent).  Signals
    present in only one dump are reported as a difference at time 0.
    """
    if signals is None:
        names = sorted(set(a.widths) | set(b.widths))
    else:
        names = list(signals)
    differences: List[WaveformDifference] = []
    for name in names:
        in_a = name in a.widths
        in_b = name in b.widths
        if not (in_a and in_b):
            differences.append(WaveformDifference(
                signal=name, time=0,
                value_a="<present>" if in_a else None,
                value_b="<present>" if in_b else None))
            continue
        history_a = a.changes[name]
        history_b = b.changes[name]
        times = sorted({t for t, _v in history_a}
                       | {t for t, _v in history_b})
        for time in times:
            value_a = a.value_at(name, time)
            value_b = b.value_at(name, time)
            if value_a != value_b:
                differences.append(WaveformDifference(
                    signal=name, time=time, value_a=value_a,
                    value_b=value_b))
    return differences


class LeakyBucket(object):
    """GCRA(T, tau) — continuous-state leaky bucket formulation.

    The bucket drains at one unit per unit time, each conforming cell
    pours in ``increment``, and a cell conforms iff the bucket content
    just before pouring is <= ``limit``.
    """

    def __init__(self, increment: float, limit: float) -> None:
        if increment <= 0:
            raise ValueError(f"non-positive bucket increment {increment}")
        if limit < 0:
            raise ValueError(f"negative bucket limit {limit}")
        self.increment = increment
        self.limit = limit
        self._content = 0.0
        self._last_time = 0.0
        self.conforming = 0
        self.non_conforming = 0

    def arrival(self, time: float) -> bool:
        """Process a cell arrival; returns True when conforming."""
        if time < self._last_time:
            raise ValueError(
                f"cell arrivals must be time-ordered: {time} < "
                f"{self._last_time}")
        drained = max(0.0, self._content - (time - self._last_time))
        self._last_time = time
        if drained > self.limit:
            # Non-conforming cells do not add to the bucket.
            self._content = drained
            self.non_conforming += 1
            return False
        self._content = drained + self.increment
        self.conforming += 1
        return True

    def reset(self) -> None:
        """Forget all state (new connection)."""
        self._content = 0.0
        self._last_time = 0.0
        self.conforming = 0
        self.non_conforming = 0


def flow_tracks(payload: Dict[str, object]) -> Dict[object, Set[int]]:
    """Map each flow (cell) id to the set of track ids it touches —
    the cross-domain connectivity check of the acceptance criteria."""
    result: Dict[object, Set[int]] = {}
    for event in payload.get("traceEvents", []):
        if event.get("ph") in ("s", "t", "f"):
            result.setdefault(event.get("id"), set()).add(
                event.get("tid"))
    return result


def flow_processes(payload: Dict[str, object]
                   ) -> Dict[object, Set[int]]:
    """Map each flow (cell) id to the set of *pids* it touches — a
    flow spanning two pids is a cross-process provenance chain (the
    distributed acceptance check: every sampled cell that hopped
    shards must appear here with ≥ 2 pids)."""
    result: Dict[object, Set[int]] = {}
    for event in payload.get("traceEvents", []):
        if event.get("ph") in ("s", "t", "f"):
            result.setdefault(event.get("id"), set()).add(
                event.get("pid"))
    return result
