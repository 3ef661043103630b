"""Shared builders for the experiment benchmarks.

Two system configurations recur across experiments:

* the **co-verification setup** (paper §2): the switch and the traffic
  live in the network simulator; only the device under test is RTL,
  coupled through CASTANET — :mod:`repro.scenario` builds and runs it;
* the **pure-RTL test bench** (the paper's baseline): the same cell
  stream is produced, transported and checked entirely by RTL
  components in the event-driven HDL simulator — four port modules,
  their stimulus senders/monitors and the DUT
  (:func:`build_pure_rtl_system`).

Sizes are deliberately modest (Python kernels, not compiled
simulators) and scalable through the ``REPRO_BENCH_SCALE`` environment
variable: 1.0 reproduces the numbers quoted in EXPERIMENTS.md, larger
values stress the same shapes with more cells.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional

from repro.atm import AtmCell
from repro.core import TimeBase
from repro.hdl import CycleEngine, Simulator
from repro.rtl import (AccountingUnitRtl, AtmSwitchRtl, CellReceiver,
                       CellSender)

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
