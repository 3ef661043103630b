"""The six benchmark workloads.

One common environment, varied only in DUT model level and traffic
(Falconeri et al.'s cut): four co-simulations of a 4-port abstract
switch with one coupled DUT, the paper's pure-RTL baseline, and a
two-shard chained topology.  Everything is built from ``repro``'s
public constructors; nothing here imports ``benchmarks/common.py``,
``repro.obs.scenario`` or ``repro.sweep.scenario``.

A workload object is one run: construct it (build + stimulus
pre-generation, untimed), optionally :meth:`attach` a tracer, call
:meth:`run` (the timed region; returns its start and end stamps), then
:meth:`outcome` (correctness check, digest and counters; untimed).
Sizes are passed in; ``run.py`` holds the fixed ones.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.atm import AccountingUnit, AtmCell, AtmSwitch, Tariff
from repro.behav import AccountingUnitBehav
from repro.core import CoVerificationEnvironment, TimeBase
from repro.hdl import CycleEngine, RisingEdge, Simulator
from repro.netsim import SinkModule
from repro.rtl import (RECORD_WORDS, AccountingUnitRtl, AtmPortModuleRtl,
                       AtmSwitchRtl, CellReceiver, CellSender)
from repro.traffic import (ArrivalProcess, ConstantBitRate,
                           MarkovModulatedPoisson, OnOffSource,
                           ParetoOnOffSource, PoissonArrivals,
                           TrafficSource)

from .tracer import Tracer

__all__ = ["Outcome", "Workload", "build", "digest_of"]

TIMEBASE = TimeBase.for_line_rate()
CELL_TIME = TIMEBASE.cell_time_seconds
CLOCK_TICKS = TIMEBASE.clock_period_ticks
LINE_RATE_BPS = 155.52e6
PORTS = 4
#: per-port line occupancy of the CBR sources and the RTL stimulus
CBR_LOAD = 0.25
#: mean per-port load of the stochastic traffic mix
MIXED_LOAD = 0.2


@dataclass
class Outcome:
    """What one run produced, read after the timed region."""

    #: cells offered to the DUT(s)
    cells: int
    #: cells the DUT missed or answered differently from the reference
    failed: int
    #: simulated DUT clocks (modelled clocks for behavioural DUTs)
    clocks: int
    #: SHA-256 over modelled results only (no simulator work counts)
    digest: str
    #: simulator work counts from the public snapshot/report dicts
    counts: Dict[str, float]


class Workload:
    """One run of one workload (see the module docstring)."""

    def attach(self, tracer: Tracer) -> None:
        """Wrap the public entry points of every layer this run uses."""
        raise NotImplementedError

    def run(self) -> Tuple[float, float]:
        """Execute; returns the timed region's start and end stamps."""
        raise NotImplementedError

    def outcome(self) -> Outcome:
        """Check the outputs; digest and counters."""
        raise NotImplementedError

    def reference_failures(self) -> int:
        """Cells failing a reference check that needs a second run
        (the other workloads' reference models run alongside)."""
        return 0

    def extra_layer_metrics(self) -> Dict[str, float]:
        """Layer metrics that need runs of their own."""
        return {}


def digest_of(parts: Sequence[object]) -> str:
    """SHA-256 over the ``repr`` of modelled results."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(repr(part).encode())
        sha.update(b"\0")
    return sha.hexdigest()


def _hdl_counts(sim: Simulator, clocks: int) -> Dict[str, float]:
    """The HDL kernel's work counts from its public snapshot."""
    hdl = sim.stats_snapshot()
    return {"hdl.clocks": clocks,
            **{f"hdl.{key}": hdl[key] for key in (
                "events_executed", "delta_cycles", "process_runs",
                "compiled_evals", "compiled_fallbacks")}}


def _failed_records(dut_records: Sequence[Tuple[int, ...]],
                    reference: AccountingUnit) -> int:
    """Cells on connections whose charging record disagrees with the
    reference model's (record order is an implementation detail)."""
    observed = {(rec[0], rec[1]): tuple(rec) for rec in dut_records}
    failed = 0
    for ref in reference.close_interval():
        expected = (ref.vpi, ref.vci, ref.interval, ref.cells_clp0,
                    ref.cells_clp1, ref.charge_units)
        if observed.pop((ref.vpi, ref.vci), None) != expected:
            failed += max(1, ref.cells_clp0 + ref.cells_clp1)
    return failed + len(observed)


# ----------------------------------------------------------------------
# Co-simulation: abstract switch + traffic in netsim, one coupled DUT
# ----------------------------------------------------------------------
def _mixed_arrivals(seed: int) -> List[ArrivalProcess]:
    """Poisson / on-off / MMPP / Pareto on-off, each at mean load
    MIXED_LOAD; the on-off sources burst at about twice the mean."""
    rate = MIXED_LOAD / CELL_TIME
    burst = 10 * CELL_TIME
    # An ON period of mean length m emits 1 / (exp(p / m) - 1) cells
    # at spacing p; solve for the p that makes the long-run rate
    # MIXED_LOAD at a 50 % duty cycle.
    peak_period = burst * math.log1p(1.0 / (2 * rate * burst))
    base = seed * 1009
    return [
        PoissonArrivals(rate=rate, seed=base),
        OnOffSource(peak_period=peak_period, mean_on=burst,
                    mean_off=burst, seed=base + 1),
        MarkovModulatedPoisson(rate_a=1.5 * rate, rate_b=0.5 * rate,
                               mean_sojourn_a=burst,
                               mean_sojourn_b=burst, seed=base + 2),
        ParetoOnOffSource(peak_period=peak_period, mean_on=burst,
                          mean_off=burst, alpha=1.9, seed=base + 3),
    ]


class CosimWorkload(Workload):
    """4-port abstract ``AtmSwitch`` in netsim, one source per port,
    the DUT coupled on the aggregate source stream through a tap.

    *size* is the cell count over all ports.  *traffic* is ``"cbr"``
    (payload ``[(i + seed) % 256]`` — senders hit their cell
    templates) or ``"mixed"`` (seeded random payloads — every cell
    misses).  *dut* is
    ``"acct-rtl"``, ``"port-rtl"`` (the only one with a response path)
    or ``"acct-behav"``.
    """

    def __init__(self, seed: int, size: int, traffic: str, dut: str,
                 observe: bool = False) -> None:
        self.dut_kind = dut
        self.env = env = CoVerificationEnvironment(
            timebase=TIMEBASE, observe=observe, provenance_sample=16)
        self.reference = AccountingUnit(drop_unknown=True)
        self.record_words: List[int] = []
        #: (vci, payload) of every cell offered to the port module
        self.offered: List[Tuple[int, List[int]]] = []
        self.offered_cells = 0
        if dut == "acct-rtl":
            self.dut = AccountingUnitRtl(env.hdl, "acct", env.clk)
            self.entity = env.add_dut(rx_port=self.dut.rx,
                                      tick_signal=self.dut.tariff_tick)
            env.hdl.add_generator("bench.records", self._record_monitor())
        elif dut == "port-rtl":
            self.dut = AtmPortModuleRtl(env.hdl, "port", env.clk)
            # The port module has no tick input; the closing tick then
            # pulses a spare signal, which makes the HDL side simulate
            # up to the horizon like the accounting DUTs do.
            self.entity = env.add_dut(
                rx_port=self.dut.rx, tx_port=self.dut.tx,
                tick_signal=env.hdl.signal("bench.end_of_run", init="0"))
        elif dut == "acct-behav":
            self.dut = AccountingUnitBehav("acct", timebase=TIMEBASE)
            self.entity = env.add_dut(behav=self.dut)
        else:
            raise ValueError(f"unknown DUT kind {dut!r}")

        count = max(1, size // PORTS)
        if traffic == "cbr":
            arrivals: List[ArrivalProcess] = [
                ConstantBitRate(period=CELL_TIME / CBR_LOAD, seed=port)
                for port in range(PORTS)]
            self.until = None
        elif traffic == "mixed":
            arrivals = _mixed_arrivals(seed)
            # A fixed horizon on top of the fixed cell count, so that
            # simulated clocks repeat from seed to seed as well as
            # cells.  1.25x the nominal duration lets every source
            # finish: the slowest of the four needs 1.2x at its 99th
            # percentile over seeds (a slower one offers fewer cells).
            self.until = 1.25 * count / MIXED_LOAD * CELL_TIME
        else:
            raise ValueError(f"unknown traffic {traffic!r}")

        switch = AtmSwitch(env.network, "switch", num_ports=PORTS,
                           cell_time=CELL_TIME)
        self.sources: List[TrafficSource] = []
        for port in range(PORTS):
            vci = 100 + port
            switch.install_connection(port, 1, vci, (port + 1) % PORTS,
                                      1, vci)
            if dut == "port-rtl":
                self.dut.install(1, vci, 2, vci + 100)
            else:
                self.dut.register(1, vci, units_per_cell=2)
                self.reference.register(1, vci, Tariff(units_per_cell=2))
            if traffic == "cbr":
                factory = self._cbr_factory(vci, seed)
            else:
                rng = random.Random(seed * 1009 + 17 + port)
                factory = self._pool_factory(
                    vci, [rng.randbytes(48) for _ in range(count)])
            source = TrafficSource(f"src{port}", arrivals[port],
                                   packet_factory=factory, count=count,
                                   tracker=env.provenance)
            tap = env.make_cell_tap(f"tap{port}", self.entity)
            tap.add_hook(self._on_tap)
            sink = SinkModule(
                "sink", on_packet=(env.provenance.sink_hook(f"sink{port}")
                                   if env.provenance is not None else None))
            host = env.network.add_node(f"host{port}")
            for module in (source, tap, sink):
                host.add_module(module)
            host.connect(source, 0, tap, 0)
            host.bind_port_output(0, tap, 0)
            host.bind_port_input(0, sink, 0)
            env.network.add_link(host, 0, switch.node, port,
                                 rate_bps=LINE_RATE_BPS)
            env.network.add_link(switch.node, port, host, 0,
                                 rate_bps=LINE_RATE_BPS)
            self.sources.append(source)

    @staticmethod
    def _cbr_factory(vci: int, seed: int) -> Callable[[int], object]:
        return lambda i: AtmCell.with_payload(
            1, vci, [(i + seed) % 256]).to_packet()

    @staticmethod
    def _pool_factory(vci: int, pool: List[bytes]
                      ) -> Callable[[int], object]:
        return lambda i: AtmCell.with_payload(1, vci, pool[i]).to_packet()

    def _on_tap(self, _time: float, packet) -> None:
        """The reference side of the co-verification, fed from the
        same tap as the DUT."""
        self.offered_cells += 1
        if self.dut_kind == "port-rtl":
            self.offered.append((packet["VCI"], packet["payload"]))
        else:
            self.reference.cell_arrival(packet["VPI"], packet["VCI"],
                                        clp=packet.get("CLP", 0))

    def _record_monitor(self):
        """Collects the accounting unit's record words; parked on
        ``rec_valid`` so it costs nothing until records stream."""
        dut, clk, words = self.dut, self.env.clk, self.record_words
        while True:
            yield RisingEdge(dut.rec_valid)
            while True:
                yield RisingEdge(clk)
                if dut.rec_valid.value != "1":
                    break
                words.append(dut.rec_word.as_int())

    # ------------------------------------------------------------------
    def attach(self, tracer: Tracer) -> None:
        """Wrap the public entry points of every layer this run uses."""
        env, entity = self.env, self.entity
        for source in self.sources:
            tracer.wrap(source.arrivals, ["next_interarrival"], "traffic")
            tracer.wrap(source, ["packet_factory"], "atm")
        tracer.wrap(env.network, ["run"], "netsim")
        calls = ["send_cell", "advance_time", "send_tariff_tick", "finish"]
        if self.dut_kind == "acct-behav":
            tracer.wrap(entity, calls, "behav")
            return
        tracer.wrap(entity, calls, "core.cosim")
        tracer.wrap(entity.sync, ["post", "advance_time", "drain"],
                    "core.sync")
        tracer.wrap(entity.mapper, ["cell_to_octets", "octets_to_cell"],
                    "core.mapping")
        tracer.wrap(entity.sender, ["send"], "rtl.cell_stream")
        tracer.wrap(env.hdl, ["run"], "hdl")

    def run(self) -> Tuple[float, float]:
        """The timed region: run the network, close the tariff
        interval, drain the coupled simulator."""
        env, entity = self.env, self.entity
        start = time.monotonic()
        env.run(until=self.until)
        entity.send_tariff_tick(env.network.kernel.now + CELL_TIME)
        env.finish()
        if self.dut_kind == "acct-rtl":
            # the tick queues records that clock out after the drain
            env.hdl.run(until=env.hdl.now + 64 * CLOCK_TICKS)
        return start, time.monotonic()

    def outcome(self) -> Outcome:
        """Check the DUT against the reference model; digest; counts."""
        env, entity = self.env, self.entity
        offered = self.offered_cells
        failed = abs(offered - entity.cells_in)
        if self.dut_kind == "port-rtl":
            outputs = [(when, cell.to_octets())
                       for when, cell in entity.output_cells]
            results: List[object] = outputs
            failed += abs(len(outputs) - len(self.offered))
            for (vci, payload), (_, octets) in zip(self.offered, outputs):
                expected = AtmCell.with_payload(2, vci + 100, payload)
                failed += octets != expected.to_octets()
        else:
            if self.dut_kind == "acct-rtl":
                words = self.record_words
                results = [tuple(words[i:i + RECORD_WORDS]) for i in
                           range(0, len(words) - RECORD_WORDS + 1,
                                 RECORD_WORDS)]
            else:
                results = list(self.dut.records)
            failed += _failed_records(results, self.reference)
        if entity.level == "behav":
            clocks = entity.modelled_clocks
        else:
            clocks = env.hdl.now // CLOCK_TICKS
        snapshot = entity.snapshot()
        counts: Dict[str, float] = {
            "traffic.arrivals": sum(s.emitted for s in self.sources),
            "netsim.events":
                env.network.kernel.stats_snapshot()["executed_events"],
        }
        if entity.level == "behav":
            counts["behav.cells_in"] = snapshot["cells_in"]
        else:
            sync = snapshot["sync"]
            hits = snapshot["sender_template_hits"]
            misses = snapshot["sender_template_misses"]
            counts.update({
                "core.cosim.cells_in": snapshot["cells_in"],
                "core.cosim.cells_out": snapshot["output_cells"],
                "core.sync.messages_posted": sync["messages_posted"],
                "core.sync.null_messages": sync["null_messages"],
                "core.sync.null_coalesced_ratio":
                    sync["null_messages_coalesced"]
                    / max(1, sync["null_messages"]),
                "core.sync.windows_granted": sync["windows_granted"],
                "rtl.cell_stream.template_hit_ratio":
                    hits / max(1, hits + misses),
                **_hdl_counts(env.hdl, clocks),
            })
        return Outcome(
            cells=offered, failed=min(failed, max(offered, 1)),
            clocks=clocks,
            digest=digest_of([results, clocks, entity.cells_in,
                            len(entity.output_cells)]),
            counts=counts)


# ----------------------------------------------------------------------
# The paper's baseline: everything RTL in the HDL simulator
# ----------------------------------------------------------------------
class PureRtlWorkload(Workload):
    """``AtmSwitchRtl`` (four port modules + control unit) driven by
    four ``CellSender`` generators with idle-cell fill, monitored by
    four ``CellReceiver`` monitors, the accounting DUT on port 0's
    output.  All stimulus is queued at build time."""

    def __init__(self, seed: int, size: int) -> None:
        self.cells_per_port = size
        self.sim = sim = Simulator(time_unit=TIMEBASE.tick_seconds)
        clk = sim.signal("clk", init="0")
        CycleEngine(sim, clk, period=CLOCK_TICKS)
        self.fabric = AtmSwitchRtl(sim, "fabric", clk, num_ports=PORTS,
                                   queue_depth=64)
        self.idle_per_cell = round(1.0 / CBR_LOAD) - 1
        idle = AtmCell.idle().to_octets()
        self.monitors: List[CellReceiver] = []
        self.expected: List[List[List[int]]] = []
        for port in range(PORTS):
            vci = 100 + port
            self.fabric.install_connection(port, 1, vci, port, 1, vci)
            sender = CellSender(sim, f"gen{port}", clk,
                                port=self.fabric.rx_ports[port])
            self.monitors.append(CellReceiver(
                sim, f"mon{port}", clk, self.fabric.tx_ports[port]))
            stream = [AtmCell.with_payload(
                1, vci, [(i + seed) % 256]).to_octets()
                for i in range(size)]
            for octets in stream:
                sender.send(octets)
                for _ in range(self.idle_per_cell):
                    sender.send(idle)
            self.expected.append(stream)
        self.dut = AccountingUnitRtl(sim, "acct", clk,
                                     rx=self.fabric.tx_ports[0])
        self.dut.register(1, 100, units_per_cell=2)

    def attach(self, tracer: Tracer) -> None:
        """Only the HDL kernel runs in the timed region."""
        tracer.wrap(self.sim, ["run"], "hdl")

    def run(self) -> Tuple[float, float]:
        """The timed region: clock the bench until every slot played."""
        slots = self.cells_per_port * (1 + self.idle_per_cell)
        start = time.monotonic()
        self.sim.run(until=53 * (slots + 10) * CLOCK_TICKS)
        return start, time.monotonic()

    def outcome(self) -> Outcome:
        """Switched, monitored and accounted cells against the streams
        that were sent."""
        offered = self.cells_per_port * PORTS
        fabric = self.fabric.counters()
        failed = abs(offered - fabric["cells_switched"])
        failed += abs(self.cells_per_port - self.dut.cells_seen)
        streams = []
        for monitor, expected in zip(self.monitors, self.expected):
            seen = [cell for cell in monitor.cells
                    if not AtmCell.from_octets(cell).is_idle]
            streams.append(seen)
            failed += abs(len(seen) - len(expected))
            failed += sum(a != b for a, b in zip(seen, expected))
        clocks = self.sim.now // CLOCK_TICKS
        return Outcome(
            cells=offered, failed=min(failed, offered), clocks=clocks,
            digest=digest_of([streams, clocks, fabric["cells_received"],
                            fabric["cells_switched"],
                            self.dut.cells_seen]),
            counts=_hdl_counts(self.sim, clocks))


def build(name: str, seed: int, size: int) -> Workload:
    """Construct one run of workload *name* (set-up work, untimed)."""
    if name == "cosim-rtl-cbr":
        return CosimWorkload(seed, size, "cbr", "acct-rtl")
    if name == "cosim-rtl-bursty":
        return CosimWorkload(seed, size, "mixed", "port-rtl")
    if name == "cosim-rtl-observed":
        return CosimWorkload(seed, size, "cbr", "acct-rtl", observe=True)
    if name == "pure-rtl-bench":
        return PureRtlWorkload(seed, size)
    if name == "cosim-behav-mixed":
        return CosimWorkload(seed, size, "mixed", "acct-behav")
    if name == "shard-chain-behav":
        # imported on demand: the other workloads' set-up time must
        # not include importing repro.shard
        from .shard_workload import ShardWorkload
        return ShardWorkload(seed, size)
    raise KeyError(f"unknown workload {name!r}")
