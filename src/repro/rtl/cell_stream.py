"""Octet-serial cell stream interface (the bit-level side of Figure 4).

The paper's abstraction interface maps an OPNET packet to "an 8-bit
wide VHDL port signal ... it takes 53 clock cycles within the hardware
simulator to read the cell.  Additionally, the interface model
generates control signals such as a cell synchronization signal".

These components implement that signal-level convention, shared by the
RTL DUTs and by CASTANET's co-simulation entity:

* ``atmdata[7:0]`` — one cell octet per clock,
* ``cellsync``    — '1' together with octet 0 of each cell,
* ``valid``       — '1' while an octet is present.

Bulk playback (the 1:400-granularity hot path): a behavioural
generator that drives one octet per clock costs 53 process resumptions
and ~159 ``drive()`` calls per cell.  :class:`CellSender` instead
compiles each cell image once into a cached transition template and
plays it back through a single
:meth:`repro.hdl.Simulator.schedule_waveform` call — one dict lookup
plus one bulk insert per cell, trace-identical to the generator
(:class:`repro.reference.GeneratorCellSender` is that generator, kept
as the oracle; ``tests/rtl/test_bulk_equiv.py`` compares the VCDs).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from ..hdl.logic import vector_to_int
from ..hdl.processes import RisingEdge
from ..hdl.signal import Signal
from ..hdl.simulator import Simulator
from .component import Component

__all__ = ["CellStreamPort", "CellSender", "CellReceiver", "CELL_OCTETS",
           "enable_shared_templates", "shared_template_stats",
           "clear_shared_templates"]

CELL_OCTETS = 53

# ----------------------------------------------------------------------
# Shared compiled-cell-template cache (cross-sender, cross-run)
# ----------------------------------------------------------------------
# A compiled template binds Signal objects, so per-instance caches die
# with their sender.  The shared cache stores templates *symbolically*
# (signal index instead of Signal: 0=atmdata, 1=cellsync, 2=valid) so a
# long-lived process — the `repro serve` job-service workers — carries
# the compilation work of one job into the next and across senders.
# Off by default: single-run processes gain nothing from the extra
# publish step.
_SHARED_ENABLED = False
_SHARED_LIMIT = 4096
_SHARED_TEMPLATES: dict = {}
_SHARED_STATS = {"hits": 0, "misses": 0}


def enable_shared_templates(enabled: bool = True) -> None:
    """Turn the process-wide shared template cache on (or off).

    Intended for long-lived processes serving many runs (the
    ``repro serve`` workers enable it at startup); the per-sender
    cache keeps working either way.
    """
    global _SHARED_ENABLED
    _SHARED_ENABLED = enabled


def clear_shared_templates() -> None:
    """Drop every shared template and reset the hit/miss counters."""
    _SHARED_TEMPLATES.clear()
    _SHARED_STATS["hits"] = 0
    _SHARED_STATS["misses"] = 0


def shared_template_stats() -> dict:
    """Counters of the shared cache: ``enabled``, ``entries``,
    ``hits`` (a sender bound an already-published template) and
    ``misses`` (a template had to be compiled and was published)."""
    return {"enabled": _SHARED_ENABLED,
            "entries": len(_SHARED_TEMPLATES),
            "hits": _SHARED_STATS["hits"],
            "misses": _SHARED_STATS["misses"]}


class CellStreamPort:
    """The signal bundle of one octet-serial cell interface."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.name = name
        self.atmdata = sim.signal(f"{name}.atmdata", width=8, init=0)
        self.cellsync = sim.signal(f"{name}.cellsync", init="0")
        self.valid = sim.signal(f"{name}.valid", init="0")

    def signals(self) -> List[Signal]:
        """All signals of the bundle (for VCD dumps)."""
        return [self.atmdata, self.cellsync, self.valid]


class CellSender(Component):
    """Clocks queued cells (53-octet sequences) onto a stream port.

    Cells are queued with :meth:`send`; the sender drives one octet per
    rising clock edge, inserting idle (valid='0') slots when the queue
    is empty.  ``gap_octets`` adds that many idle clocks between
    consecutive cells (inter-cell spacing).

    Each cell is compiled into a cached waveform template (memoised by
    octet tuple and edge spacing, including the ``cellsync``/``valid``
    control schedule and the idle trailer) and injected with one
    ``schedule_waveform`` call; no process resumption per clock.  That
    needs the clock geometry of *clk*, so the clock must be registered
    (``sim.add_clock`` or a :class:`~repro.hdl.cycle.CycleEngine`)
    before the sender is built.
    """

    def __init__(self, sim: Simulator, name: str, clk: Signal,
                 port: Optional[CellStreamPort] = None,
                 gap_octets: int = 0) -> None:
        super().__init__(sim, name)
        if sim.clock_spec(clk) is None:
            raise ValueError(
                f"CellSender {name!r}: no clock is registered on signal "
                f"{clk.name!r}; call sim.add_clock(clk, period) or "
                "build a CycleEngine(sim, clk, period) first")
        self.port = port if port is not None else CellStreamPort(sim, name)
        self.gap_octets = gap_octets
        self.clk = clk
        #: cells sent before initialisation, flushed by :meth:`_start`
        self._queue: Deque[List[int]] = deque()
        self._started = False
        self.cells_sent = 0
        #: optional observer invoked after a cell's last octet has been
        #: driven (used for per-cell ingress-latency accounting)
        self.on_cell_sent: Optional[Callable[[], None]] = None
        #: optional profiling hook — a zero-arg callable returning a
        #: context manager, wrapped around every cell compilation
        #: (see :func:`repro.obs.profile.attach_profiling`)
        self.profile: Optional[Callable[[], object]] = None
        self._driver = object()
        #: (octets, gap0) -> precompiled transition template
        self._template_cache: dict = {}
        self.template_hits = 0
        self.template_misses = 0
        #: first edge tick free for the next cell's octet 0
        self._next_free_edge: Optional[int] = None
        #: cells scheduled as waveforms whose trailer has not played
        self._inflight = 0
        if sim._initialized:
            self._start(sim)
        else:
            # Scheduling is run-phase work: cells sent while the bench
            # is being built wait in the queue and are scheduled inside
            # sim.initialize(), by this one-shot process.
            sim.add_process(f"{name}.sender", self._start)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def send(self, octets: Sequence[int]) -> None:
        """Queue one cell (a 53-octet sequence) for transmission."""
        if len(octets) != CELL_OCTETS:
            raise ValueError(
                f"a cell is {CELL_OCTETS} octets, got {len(octets)}")
        if self._started:
            self._schedule_cell(tuple(octets))
        else:
            self._queue.append(list(octets))

    @property
    def backlog(self) -> int:
        """Cells queued but not yet fully transmitted (scheduled cells
        count until their idle trailer has played)."""
        return len(self._queue) + self._inflight

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _start(self, _sim: Simulator) -> None:
        """Initialisation: establish the idle levels, or schedule the
        cells queued so far — the first with octet 0 applied at the
        current time, before the first edge, where a generator's first
        run would drive it."""
        self._started = True
        queue = self._queue
        if not queue:
            self._drive_idle()
        at_now = True
        while queue:
            self._schedule_cell(tuple(queue.popleft()), at_now)
            at_now = False

    def _drive_idle(self) -> None:
        """Idle levels, through the same driver identity as the cell
        waveforms (two drivers on the port would resolve to 'X')."""
        sim = self.sim
        sim._schedule_update(self.port.valid, self._driver, "0", 0)
        sim._schedule_update(self.port.cellsync, self._driver, "0", 0)

    def _schedule_cell(self, octets: Tuple[int, ...],
                       at_now: bool = False) -> None:
        profile = self.profile
        if profile is not None:
            with profile():
                self._schedule_cell_impl(octets, at_now)
            return
        self._schedule_cell_impl(octets, at_now)

    def _schedule_cell_impl(self, octets: Tuple[int, ...],
                            at_now: bool) -> None:
        sim = self.sim
        period = sim.clock_spec(self.clk)[0]
        now = sim.now
        free = self._next_free_edge
        if free is not None and free > now:
            # Chained behind the previous cell (back-to-back or gap).
            base, gap0 = free, period
        elif at_now:
            # Initialisation-time send: a generator drives octet 0
            # during its first run, before the first edge.
            base = now
            gap0 = sim.next_rising_edge(self.clk, after=now) - now
        else:
            # Idle pick-up: octet 0 lands after the next rising edge
            # strictly beyond the current time (where a generator
            # parked on the empty queue would resume).
            base = sim.next_rising_edge(self.clk, after=now)
            gap0 = period
        key = (octets, gap0)
        template = self._template_cache.get(key)
        if template is None:
            self.template_misses += 1
            template = self._adopt_shared(octets, gap0, period)
            if template is None:
                template = self._compile_template(octets, gap0, period)
                self._publish_shared(octets, gap0, period, template)
            self._template_cache[key] = template
        else:
            self.template_hits += 1
        transitions, trailer_offset = template
        self._inflight += 1
        sim.schedule_waveform(
            transitions, start=base, driver=self._driver,
            callbacks=((trailer_offset, self._cell_done),),
            normalized=True)
        self._next_free_edge = (base + trailer_offset
                                + self.gap_octets * period)

    def _compile_template(self, octets: Tuple[int, ...], gap0: int,
                          period: int) -> Tuple[List[tuple], int]:
        """Compile one cell image into a transition list.

        Offsets: octet 0 at 0, octet *k* at ``gap0 + (k-1)*period``,
        idle trailer one edge after the last octet.  Transitions that
        cannot change the signal (an octet equal to its predecessor,
        ``cellsync``/``valid`` levels already established) are
        omitted — same resolved waveform, fewer kernel events.  Octet
        0 and the trailer are always emitted: the bus state before and
        after the cell is not part of the template key.
        """
        atmdata = self.port.atmdata
        cellsync = self.port.cellsync
        valid = self.port.valid
        norm = atmdata.normalize
        transitions: List[tuple] = [
            (0, atmdata, norm(octets[0])),
            (0, cellsync, "1"),
            (0, valid, "1"),
        ]
        previous = octets[0]
        for index in range(1, len(octets)):
            offset = gap0 + (index - 1) * period
            octet = octets[index]
            if octet != previous:
                transitions.append((offset, atmdata, norm(octet)))
                previous = octet
            if index == 1:
                transitions.append((offset, cellsync, "0"))
        trailer_offset = gap0 + (len(octets) - 1) * period
        transitions.append((trailer_offset, valid, "0"))
        return transitions, trailer_offset

    def _adopt_shared(self, octets: Tuple[int, ...], gap0: int,
                      period: int) -> Optional[Tuple[List[tuple], int]]:
        """Bind a shared symbolic template to this sender's signals;
        None when the shared cache is off or has no entry."""
        if not _SHARED_ENABLED:
            return None
        entry = _SHARED_TEMPLATES.get((octets, gap0, period))
        if entry is None:
            _SHARED_STATS["misses"] += 1
            return None
        _SHARED_STATS["hits"] += 1
        symbolic, trailer_offset = entry
        signals = (self.port.atmdata, self.port.cellsync,
                   self.port.valid)
        return ([(offset, signals[index], value)
                 for offset, index, value in symbolic], trailer_offset)

    def _publish_shared(self, octets: Tuple[int, ...], gap0: int,
                        period: int,
                        template: Tuple[List[tuple], int]) -> None:
        """Store a freshly compiled template in signal-index form so
        any sender (in this process) can adopt it later."""
        if not _SHARED_ENABLED or len(_SHARED_TEMPLATES) >= _SHARED_LIMIT:
            return
        transitions, trailer_offset = template
        index_of = {id(self.port.atmdata): 0,
                    id(self.port.cellsync): 1,
                    id(self.port.valid): 2}
        symbolic = [(offset, index_of[id(signal)], value)
                    for offset, signal, value in transitions]
        _SHARED_TEMPLATES[(octets, gap0, period)] = (symbolic,
                                                     trailer_offset)

    def _cell_done(self) -> None:
        """Waveform completion hook: the cell's last octet has been
        driven."""
        self._inflight -= 1
        self.cells_sent += 1
        if self.on_cell_sent is not None:
            self.on_cell_sent()


class CellReceiver(Component):
    """Collects octets from a stream port back into 53-octet cells.

    Each completed cell is appended to :attr:`cells` and passed to the
    optional ``on_cell`` callback.  Octets arriving without a preceding
    cellsync are counted as :attr:`framing_errors` and discarded.

    One sample per rising clock edge (:meth:`_compile_seq`).  On the
    event kernel the process is a generator that, while no cell is in
    progress and ``valid`` is low, parks on ``valid``'s rising edge
    instead of sampling every clock — idle gaps cost no process runs
    (the edge-gated idle loop).  The edges it skips are exactly those
    whose sample is a no-op, so both kernels observe the same cells.
    """

    def __init__(self, sim: Simulator, name: str, clk: Signal,
                 port: CellStreamPort,
                 on_cell: Optional[Callable[[List[int]], None]] = None
                 ) -> None:
        super().__init__(sim, name)
        self.port = port
        self.on_cell = on_cell
        self.cells: List[List[int]] = []
        self._partial: Optional[List[int]] = None
        self.framing_errors = 0
        self.clocked(clk, self._compile_seq, "receiver")

    @property
    def collecting(self) -> bool:
        """True while a cell is partially received."""
        return self._partial is not None

    def _add_event_process(self, clk: Signal, label: str,
                           evaluate: Callable[[], None]) -> None:
        """The edge-gated generator: *evaluate* on each rising clock
        edge while a cell is in progress or ``valid`` is high."""
        self.sim.add_generator(label, self._run(clk, evaluate))

    def _run(self, clk: Signal, evaluate: Callable[[], None]):
        valid = self.port.valid
        clk_edge = RisingEdge(clk)
        valid_edge = RisingEdge(valid)
        while True:
            if self._partial is None and valid.value != "1":
                yield valid_edge
                continue
            yield clk_edge
            evaluate()

    def _compile_seq(self, ctx):
        """The sample: append a valid octet to the cell in progress
        (cellsync starts one; a stray octet is a framing error).  No
        outputs — the receiver only observes."""
        valid = ctx.read(self.port.valid)
        cellsync = ctx.read(self.port.cellsync)
        atmdata = ctx.read(self.port.atmdata)
        cells = self.cells
        to_int = vector_to_int

        def evaluate():
            if valid.value != "1":
                return
            raw = atmdata.value
            octet = raw if type(raw) is int else to_int(raw)
            partial = self._partial
            if cellsync.value == "1":
                if partial is not None:
                    self.framing_errors += 1
                partial = self._partial = [octet]
            elif partial is None:
                self.framing_errors += 1
                return
            else:
                partial.append(octet)
            if len(partial) == CELL_OCTETS:
                self._partial = None
                cells.append(partial)
                if self.on_cell is not None:
                    self.on_cell(partial)

        return evaluate
