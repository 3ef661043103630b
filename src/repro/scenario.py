"""The E1 scenario, authored once.

The paper's headline set-up (Figure 1): an abstract
:class:`~repro.atm.AtmSwitch` in the network simulator with one traffic
source per port, every port's cells tapped into one accounting DUT
coupled through CASTANET, and the algorithmic
:class:`~repro.atm.AccountingUnit` fed by the same taps as the
reference model.  The DUT comes from
:func:`repro.behav.build_dut`, so either abstraction level sits behind
one :class:`~repro.behav.DutHandle` and the RTL records are captured by
its :class:`~repro.rtl.RecordBusMonitor`.

:func:`build_scenario` builds it from a :class:`ScenarioSpec`;
:func:`run_scenario` runs the network, sends the closing tariff tick,
drains the coupling and clocks the record FIFO out.  The sweep worker
(:mod:`repro.sweep`), ``python -m repro stats``
(:func:`repro.obs.scenario.run_observed_e1`) and the E1/E3 experiment
benches all use these two functions.

The accounting case study (§4, E5 and
``examples/accounting_coverification.py``) drives the DUT directly
with an authored ``(time, cell)`` workload over two tariff intervals:
:func:`two_interval_reference` and :func:`two_interval_cosim` are that
bench, for the reference model and the RTL through CASTANET.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .atm import AccountingUnit, AtmCell, AtmSwitch, Tariff
from .behav.factory import DutHandle, build_dut
from .core import (CoVerificationEnvironment, StreamComparator, TimeBase,
                   VerificationReport)
from .netsim import SinkModule
from .traffic import (ArrivalProcess, ConstantBitRate, OnOffSource,
                      PoissonArrivals, TrafficSource)

__all__ = ["ScenarioSpec", "Scenario", "build_scenario", "run_scenario",
           "two_interval_reference", "two_interval_cosim"]

#: the modelled 155.52 Mb/s line with an octet-serial DUT clock
TIMEBASE = TimeBase.for_line_rate()
LINE_RATE_BPS = 155.52e6
#: clocks run after the coupling drained, so the records the closing
#: tariff tick queued stream out of the DUT's FIFO
RECORD_DRAIN_CLOCKS = 64


@dataclass(frozen=True)
class ScenarioSpec:
    """The knobs the scenario's callers turn.

    Attributes:
        ports: switch ports, one traffic source each.
        traffic: per-port arrival model — "cbr", "poisson" or "onoff".
        load: mean per-port line occupancy.
        cells: total cell budget, split evenly over the ports.
        seed: port *p*'s source is seeded ``seed * 1009 + p``.
        level: DUT abstraction level ("rtl" | "behav" | "auto"); None
            defers to the environment's policy.
        lockstep: the naive per-clock synchroniser (the E2 ablation)
            instead of the conservative protocol.
        observe: metrics registry on (False installs the null one).
        trace: optional JSON-lines trace sink path.
        provenance_sample: trace 1 in N cell journeys (0 disables).
    """

    ports: int = 4
    traffic: str = "cbr"
    load: float = 0.25
    cells: int = 64
    seed: int = 0
    level: Optional[str] = None
    lockstep: bool = False
    observe: bool = True
    trace: Optional[Union[str, Path]] = None
    provenance_sample: int = 1


@dataclass
class Scenario:
    """One built scenario: the environment, the coupled DUT and the
    reference model."""

    env: CoVerificationEnvironment
    dut: DutHandle
    reference: AccountingUnit

    def compare(self, name: str) -> VerificationReport:
        """Close the reference's tariff interval and compare its
        records with the DUT's, sorted (record order within an interval
        is an implementation detail).  Call once, after
        :func:`run_scenario`."""
        comparator = StreamComparator(name, normalize="sorted")
        comparator.extend_reference(
            [astuple(r) for r in self.reference.close_interval()])
        comparator.extend_observed(self.dut.records())
        return comparator.compare()


def _arrival_process(traffic: str, load: float, cell_time: float,
                     seed: int) -> ArrivalProcess:
    """Instantiate the traffic model for one port at mean rate
    ``load / cell_time`` cells per second."""
    if traffic == "cbr":
        return ConstantBitRate(period=cell_time / load, seed=seed)
    if traffic == "poisson":
        return PoissonArrivals(rate=load / cell_time, seed=seed)
    if traffic == "onoff":
        # 50 % duty cycle: peak rate 2x the mean keeps the same
        # long-run load while exercising bursty arrivals.
        return OnOffSource(peak_period=0.5 * cell_time / load,
                           mean_on=20 * cell_time,
                           mean_off=20 * cell_time, seed=seed)
    raise ValueError(f"unknown traffic model {traffic!r}")


def build_scenario(spec: ScenarioSpec) -> Scenario:
    """Build the scenario *spec* describes (nothing runs yet).

    Port *p* carries VPI 1 / VCI 100 + *p* to output port ``(p + 1) %
    ports``; the DUT and the reference charge 2 units per cell on each
    connection.  The DUT is named ``acct``.
    """
    cell_time = TIMEBASE.cell_time_seconds
    env = CoVerificationEnvironment(
        timebase=TIMEBASE, lockstep=spec.lockstep, observe=spec.observe,
        trace=spec.trace, provenance_sample=spec.provenance_sample,
        dut_level=spec.level)
    dut = build_dut(env, "accounting", name="acct")
    reference = AccountingUnit(drop_unknown=True)
    provenance = env.provenance

    ports = spec.ports
    switch = AtmSwitch(env.network, "switch", num_ports=ports,
                       cell_time=cell_time)
    per_port = max(1, spec.cells // ports)
    for port in range(ports):
        vci = 100 + port
        switch.install_connection(port, 1, vci, (port + 1) % ports, 1, vci)
        dut.design.register(1, vci, units_per_cell=2)
        reference.register(1, vci, Tariff(units_per_cell=2))

        host = env.network.add_node(f"host{port}")
        arrivals = _arrival_process(spec.traffic, spec.load, cell_time,
                                    seed=spec.seed * 1009 + port)
        source = TrafficSource(
            f"src{port}", arrivals,
            packet_factory=lambda i, v=vci: AtmCell.with_payload(
                1, v, [i % 256]).to_packet(),
            count=per_port, tracker=provenance)
        tap = env.make_cell_tap(f"tap{port}", dut.entity)
        tap.add_hook(lambda t, pkt: reference.cell_arrival(
            pkt["VPI"], pkt["VCI"], clp=pkt.get("CLP", 0)))
        sink = SinkModule("sink", on_packet=(
            provenance.sink_hook(f"sink{port}")
            if provenance is not None else None))
        for module in (source, tap, sink):
            host.add_module(module)
        host.connect(source, 0, tap, 0)
        host.bind_port_output(0, tap, 0)
        host.bind_port_input(0, sink, 0)
        env.network.add_link(host, 0, switch.node, port,
                             rate_bps=LINE_RATE_BPS)
        env.network.add_link(switch.node, port, host, 0,
                             rate_bps=LINE_RATE_BPS)
    return Scenario(env, dut, reference)


def run_scenario(scenario: Scenario, drain: bool = True
                 ) -> Dict[str, int]:
    """Run *scenario* to completion and return its work counts.

    Runs the network simulation (the DUT follows through the
    synchroniser), sends the tariff tick that closes the interval one
    cell time after the last network event, drains the coupling and —
    at RTL, unless *drain* is False — clocks the DUT
    :data:`RECORD_DRAIN_CLOCKS` more so its records stream out.  The
    trace sink is closed even when the run raises: the partial record
    stream is the evidence needed to debug the failure.

    Returns ``hdl_clocks`` (the modelled activity span for a
    behavioural DUT, whose HDL kernel never runs), ``hdl_events``,
    ``netsim_events`` and ``cells`` (cells the DUT received).
    """
    env = scenario.env
    entity = scenario.dut.entity
    rtl = scenario.dut.level == "rtl"
    period = TIMEBASE.clock_period_ticks
    try:
        env.run()
        entity.send_tariff_tick(env.network.kernel.now
                                + TIMEBASE.cell_time_seconds)
        env.finish()
        if rtl and drain:
            env.hdl.run(until=env.hdl.now + RECORD_DRAIN_CLOCKS * period)
    finally:
        env.close()
    return {
        "hdl_clocks": (env.hdl.now // period if rtl
                       else entity.modelled_clocks),
        "hdl_events": env.hdl.events_executed,
        "netsim_events": env.network.kernel.executed_events,
        "cells": entity.cells_in,
    }


def two_interval_reference(workload: Sequence[Tuple[float, AtmCell]],
                           connections: Sequence[Tuple[int, ...]]
                           ) -> List[tuple]:
    """The reference model's records for *workload* over two tariff
    intervals: the first closes before the middle cell, the second
    after the last one (two ticks are needed to expose a lost-tick
    defect).

    *connections* holds ``(vpi, vci, units_per_cell,
    units_per_cell_clp1, fixed_units)`` tuples; cells of any other
    connection are dropped.  Records come back as tuples.
    """
    reference = AccountingUnit(drop_unknown=True)
    for vpi, vci, upc, upc1, fixed in connections:
        reference.register(vpi, vci, Tariff(
            units_per_cell=upc, units_per_cell_clp1=upc1,
            fixed_units=fixed))
    split = len(workload) // 2
    records = []
    for index, (_t, cell) in enumerate(workload):
        if index == split:
            records.extend(reference.close_interval())
        reference.cell_arrival(cell.vpi, cell.vci, clp=cell.clp)
    records.extend(reference.close_interval())
    return [astuple(record) for record in records]


def two_interval_cosim(workload: Sequence[Tuple[float, AtmCell]],
                       connections: Sequence[Tuple[int, ...]],
                       bug: Optional[str] = None) -> List[tuple]:
    """The same bench as :func:`two_interval_reference`, run on the
    RTL accounting unit (with the injected defect *bug*, if any)
    through CASTANET.

    The mid-run tick lands halfway between the cells either side of
    the split, the closing tick two cell times after the last cell;
    the coupling then finishes a cell time later and the DUT clocks
    :data:`RECORD_DRAIN_CLOCKS` more so its records stream out.
    Returns the records its :class:`~repro.rtl.RecordBusMonitor`
    captured.
    """
    cell_time = TIMEBASE.cell_time_seconds
    env = CoVerificationEnvironment(timebase=TIMEBASE)
    dut = build_dut(env, "accounting", name="acct", level="rtl", bug=bug)
    for vpi, vci, upc, upc1, fixed in connections:
        dut.design.register(vpi, vci, units_per_cell=upc,
                            units_per_cell_clp1=upc1, fixed_units=fixed)
    entity = dut.entity
    split = len(workload) // 2
    for index, (t, cell) in enumerate(workload):
        if index == split:
            # the tick must land strictly between the surrounding cells
            entity.send_tariff_tick((workload[index - 1][0] + t) / 2.0)
        entity.send_cell(t, cell)
    last = workload[-1][0]
    entity.send_tariff_tick(last + 2 * cell_time)
    entity.finish(last + 3 * cell_time)
    env.hdl.run(until=env.hdl.now
                + RECORD_DRAIN_CLOCKS * TIMEBASE.clock_period_ticks)
    return dut.records()
