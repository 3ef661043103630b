"""The observed E1 reference scenario behind ``python -m repro stats``.

The paper's headline workload (E1): CBR sources on four ports of an
abstract ATM switch, with the RTL accounting unit coupled as the DUT
on the aggregate switched stream.  This module runs that scenario with
the observability layer enabled and returns one machine-readable
report — windows granted, null messages, the lag histogram, kernel
event counts and per-cell latency — the evidence base for the paper's
sync-cost and time-granularity claims.

Kept deliberately self-contained (mirroring, not importing, the
builder in ``benchmarks/common.py``) so the installed package can run
it without the repo checkout.
"""

from __future__ import annotations

import time as _time
from pathlib import Path
from typing import Dict, Optional, Union

from ..atm import AtmCell, AtmSwitch
from ..core import CoVerificationEnvironment, TimeBase
from ..netsim import SinkModule
from ..rtl import AccountingUnitRtl
from ..traffic import ConstantBitRate, TrafficSource
from .profile import attach_profiling

__all__ = ["run_observed_e1"]


def run_observed_e1(cells: int = 64, load: float = 0.25,
                    lockstep: bool = False,
                    trace: Optional[Union[str, Path]] = None,
                    sample: int = 1,
                    profile: bool = False) -> Dict[str, object]:
    """Run the observed E1 scenario; returns the metrics report.

    Args:
        cells: total cell budget across the four ports.
        load: per-port line occupancy of the CBR sources.
        lockstep: use the naive per-clock synchroniser (the E2
            ablation) instead of the conservative protocol.
        trace: optional JSON-lines trace sink path.
        sample: cell-provenance sampling — trace 1 in *sample* cell
            journeys (1 = every cell, 0 disables provenance).
        profile: attach wall-clock profiling spans to the four kernel
            hot paths (``prof.*`` histograms in the report).
    """
    timebase = TimeBase.for_line_rate()
    cell_time = timebase.cell_time_seconds
    env = CoVerificationEnvironment(timebase=timebase,
                                    lockstep=lockstep, trace=trace,
                                    provenance_sample=sample)
    dut = AccountingUnitRtl(env.hdl, "acct", env.clk)
    entity = env.add_dut(rx_port=dut.rx, tick_signal=dut.tariff_tick)
    if profile:
        attach_profiling(env)

    switch = AtmSwitch(env.network, "switch", num_ports=4,
                       cell_time=cell_time)
    per_port = max(1, cells // 4)
    period = cell_time / load
    for port in range(4):
        vci = 100 + port
        switch.install_connection(port, 1, vci, (port + 1) % 4, 1, vci)
        dut.register(1, vci, units_per_cell=2)

        host = env.network.add_node(f"host{port}")
        source = TrafficSource(
            f"src{port}", ConstantBitRate(period=period, seed=port),
            packet_factory=lambda i, v=vci: AtmCell.with_payload(
                1, v, [i % 256]).to_packet(),
            count=per_port, tracker=env.provenance)
        tap = env.make_cell_tap(f"tap{port}", entity)
        sink = SinkModule("sink",
                          on_packet=(env.provenance.sink_hook(
                              f"sink{port}")
                              if env.provenance is not None else None))
        for module in (source, tap, sink):
            host.add_module(module)
        host.connect(source, 0, tap, 0)
        host.bind_port_output(0, tap, 0)
        host.bind_port_input(0, sink, 0)
        env.network.add_link(host, 0, switch.node, port,
                             rate_bps=155.52e6)
        env.network.add_link(switch.node, port, host, 0,
                             rate_bps=155.52e6)

    start = _time.perf_counter()
    env.run()
    entity.send_tariff_tick(env.network.kernel.now + cell_time)
    env.finish()
    wall = _time.perf_counter() - start

    report = env.metrics()
    hdl_clocks = env.hdl.now // timebase.clock_period_ticks
    report["workload"] = {
        "scenario": "e1_accounting",
        "cells": per_port * 4,
        "load": load,
        "hdl_clocks": hdl_clocks,
        "wall_s": wall,
        "cycles_per_s": hdl_clocks / wall if wall > 0 else 0.0,
    }
    return report
