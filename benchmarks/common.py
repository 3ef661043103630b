"""Shared builders for the experiment benchmarks.

Two system configurations recur across experiments:

* the **co-verification setup** (paper §2): the switch and the traffic
  live in the network simulator; only the device under test is RTL,
  coupled through CASTANET;
* the **pure-RTL test bench** (the paper's baseline): the same cell
  stream is produced, transported and checked entirely by RTL
  components in the event-driven HDL simulator — four port modules,
  their stimulus senders/monitors and the DUT.

Sizes are deliberately modest (Python kernels, not compiled
simulators) and scalable through the ``REPRO_BENCH_SCALE`` environment
variable: 1.0 reproduces the numbers quoted in EXPERIMENTS.md, larger
values stress the same shapes with more cells.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.atm import (AccountingUnit, AtmCell, AtmSwitch, Tariff)
from repro.behav import AccountingUnitBehav
from repro.core import CoVerificationEnvironment, TimeBase
from repro.hdl import CycleEngine, RisingEdge, Simulator
from repro.netsim import SinkModule
from repro.rtl import (AccountingUnitRtl, AtmSwitchRtl, CellReceiver,
                       CellSender, RECORD_WORDS)
from repro.traffic import ConstantBitRate, TrafficSource

RESULTS_DIR = Path(__file__).parent / "results"

#: cell slot time on the modelled 155.52 Mb/s line, octet-serial clock
TIMEBASE = TimeBase.for_line_rate()
CELL_TIME = TIMEBASE.cell_time_seconds


def scaled(n: int) -> int:
    """Scale a default cell count by REPRO_BENCH_SCALE, minimum 8."""
    return max(8, int(n * float(os.environ.get("REPRO_BENCH_SCALE",
                                               "1.0"))))


def save_table(name: str, text: str) -> None:
    """Persist a rendered experiment table under benchmarks/results."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n")
    print()
    print(text)


# ---------------------------------------------------------------------------
# Co-verification setup (abstract system + one RTL DUT)
# ---------------------------------------------------------------------------

def build_cosim_accounting(num_cells: int, load: float = 0.25,
                           observe: bool = True,
                           level: Optional[str] = None):
    """Figure-1 setup: 4-port abstract switch, CBR sources at *load*
    per port, the accounting DUT coupled on the aggregate switched
    stream.

    *observe=False* disables the metrics registry (the E1 table
    measures the un-instrumented stack); *level* selects the DUT
    abstraction ("rtl", the seed behaviour, or "behav" for the
    zero-delta twin — default: the environment's ``REPRO_DUT_LEVEL``
    policy).

    Returns (env, dut, entity, reference, finish) where finish() runs
    the drain and returns DUT records.
    """
    env = CoVerificationEnvironment(timebase=TIMEBASE, observe=observe,
                                    dut_level=level)
    if env.resolved_dut_level() == "behav":
        dut = AccountingUnitBehav("acct", timebase=TIMEBASE)
        entity = env.add_dut(behav=dut)
    else:
        dut = AccountingUnitRtl(env.hdl, "acct", env.clk)
        entity = env.add_dut(rx_port=dut.rx,
                             tick_signal=dut.tariff_tick)
    reference = AccountingUnit(drop_unknown=True)

    switch = AtmSwitch(env.network, "switch", num_ports=4,
                       cell_time=CELL_TIME)
    per_port = max(1, num_cells // 4)
    period = CELL_TIME / load
    for port in range(4):
        vci = 100 + port
        switch.install_connection(port, 1, vci, (port + 1) % 4, 1, vci)
        dut.register(1, vci, units_per_cell=2)
        reference.register(1, vci, Tariff(units_per_cell=2))

        host = env.network.add_node(f"host{port}")
        source = TrafficSource(
            f"src{port}", ConstantBitRate(period=period, seed=port),
            packet_factory=lambda i, v=vci: AtmCell.with_payload(
                1, v, [i % 256]).to_packet(),
            count=per_port)
        tap = env.make_cell_tap(f"tap{port}", entity)
        tap.add_hook(lambda t, pkt: reference.cell_arrival(
            pkt["VPI"], pkt["VCI"], clp=pkt.get("CLP", 0)))
        sink = SinkModule("sink")
        for module in (source, tap, sink):
            host.add_module(module)
        host.connect(source, 0, tap, 0)
        host.bind_port_output(0, tap, 0)
        host.bind_port_input(0, sink, 0)
        env.network.add_link(host, 0, switch.node, port,
                             rate_bps=155.52e6)
        env.network.add_link(switch.node, port, host, 0,
                             rate_bps=155.52e6)
    return env, dut, entity, reference


def run_cosim_accounting(env, dut, entity, reference
                         ) -> Dict[str, float]:
    """Execute the co-simulation (either DUT level); returns the
    measurement dict."""
    env.run()
    entity.send_tariff_tick(env.network.kernel.now + CELL_TIME)
    env.finish()
    if entity.level == "behav":
        # no HDL kernel ran: clocks are the modelled activity span
        clocks = entity.modelled_clocks
        hdl_events = 0
    else:
        # drain the record FIFO
        env.hdl.run(until=env.hdl.now
                    + 64 * TIMEBASE.clock_period_ticks)
        clocks = env.hdl.now // TIMEBASE.clock_period_ticks
        hdl_events = env.hdl.events_executed
    return {
        "hdl_clocks": clocks,
        "hdl_events": hdl_events,
        "netsim_events": env.network.kernel.executed_events,
        "cells": entity.cells_in,
    }


def collect_rtl_records(hdl, clk, dut) -> List[int]:
    """Attach a monitor collecting the DUT's record words."""
    words: List[int] = []

    def gen():
        while True:
            yield RisingEdge(clk)
            if dut.rec_valid.value == "1":
                words.append(dut.rec_word.as_int())

    hdl.add_generator("records", gen())
    return words


def group_records(words: List[int]) -> List[Tuple[int, ...]]:
    """Flat word list -> 6-word record tuples."""
    whole = len(words) // RECORD_WORDS
    return [tuple(words[i * RECORD_WORDS:(i + 1) * RECORD_WORDS])
            for i in range(whole)]


def reference_records(reference: AccountingUnit) -> List[Tuple[int, ...]]:
    """Close the reference interval and format records like the RTL."""
    return [(r.vpi, r.vci, r.interval, r.cells_clp0, r.cells_clp1,
             r.charge_units) for r in reference.close_interval()]


# ---------------------------------------------------------------------------
# Pure-RTL baseline (everything event-driven in the HDL simulator)
# ---------------------------------------------------------------------------

def build_pure_rtl_system(cells_per_port: int, load: float = 0.25,
                          rtl_backend: Optional[str] = None):
    """The fully-RTL alternative — the paper's device list verbatim:
    an RTL switch of **four port modules and one global control unit**
    (:class:`repro.rtl.AtmSwitchRtl`), driven at line occupancy by RTL
    stimulus senders (idle cells fill the unused slots, as on the real
    wire), monitored on every output, with the accounting DUT listening
    on port 0's output stream.

    *rtl_backend* ``"event"`` keeps every component on the event
    kernel (``Simulator.rtl_backend``) for E1's event-backend row; the
    default leaves the simulator compiling.

    Returns (sim, run) where run() executes the bench and returns the
    measurement dict.
    """
    sim = Simulator(time_unit=TIMEBASE.tick_seconds)
    if rtl_backend is not None:
        sim.rtl_backend = rtl_backend
    clk = sim.signal("clk", init="0")
    CycleEngine(sim, clk, period=TIMEBASE.clock_period_ticks)

    fabric = AtmSwitchRtl(sim, "fabric", clk, num_ports=4,
                          queue_depth=64)
    idle_per_cell = max(0, int(round(1.0 / load)) - 1)
    senders = []
    receivers = []
    for index in range(4):
        vci = 100 + index
        fabric.install_connection(index, 1, vci, index, 1, vci)
        sender = CellSender(sim, f"gen{index}", clk,
                            port=fabric.rx_ports[index])
        receivers.append(CellReceiver(sim, f"mon{index}", clk,
                                      fabric.tx_ports[index]))
        for i in range(cells_per_port):
            sender.send(AtmCell.with_payload(1, vci,
                                             [i % 256]).to_octets())
            for _ in range(idle_per_cell):
                sender.send(AtmCell.idle().to_octets())
        senders.append(sender)

    # the accounting DUT listens on port 0's translated output stream
    dut = AccountingUnitRtl(sim, "acct", clk, rx=fabric.tx_ports[0])
    dut.register(1, 100, units_per_cell=2)

    def run() -> Dict[str, float]:
        slots_per_port = cells_per_port * (1 + idle_per_cell)
        clocks_needed = 53 * (slots_per_port + 10)
        sim.run(until=clocks_needed * TIMEBASE.clock_period_ticks)
        return {
            "hdl_clocks": sim.now // TIMEBASE.clock_period_ticks,
            "hdl_events": sim.events_executed,
            "cells": fabric.cells_received,
            "translated": fabric.cells_switched,
            "dut_cells": dut.cells_seen,
        }

    return sim, run
