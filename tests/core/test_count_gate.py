"""Tier-1 count gate: the work counts of small fixed co-simulations,
pinned.

The kernels' counters are deterministic for a fixed scenario, and they
are what an optimisation of either simulator must not move: one delta
cycle more per clock, one null message more per window, one waveform
event less per cell or one network event more per cell is a modelling
change that a wall-clock bound on a shared host cannot see.  The RTL
scenario is that of ``python -m repro stats`` at 64 cells (16 CBR cells
per port into ``AccountingUnitRtl``); the behavioural one is the
four-source bursty mix into ``AccountingUnitBehav`` through taps and an
``AtmSwitch``; the response-path one sends random payloads through
``AtmPortModuleRtl`` coupled with ``rx_port`` and ``tx_port``; the shard
one is a two-shard behavioural chain replayed in-process.  All run
in milliseconds.  A change that moves a number
here on purpose edits the pin in the same commit and says why.
"""

import hashlib
import math
import random

import pytest

from repro.atm import AtmCell, AtmSwitch
from repro.behav import AccountingUnitBehav
from repro.core import CoVerificationEnvironment, TimeBase
from repro.netsim import SinkModule
from repro.obs.scenario import run_observed_e1
from repro.rtl import AtmPortModuleRtl
from repro.shard import ShardSpec, TopologySpec, run_topology
from repro.traffic import (MarkovModulatedPoisson, OnOffSource,
                           ParetoOnOffSource, PoissonArrivals,
                           TrafficSource)

HDL_COUNTS = {
    "now_ticks": 189358,
    "events_executed": 8130,
    "signal_events": 8063,
    "delta_cycles": 7898,
    "process_runs": 26,
    "waveforms_scheduled": 64,
    "waveform_events": 700,
    "compiled_evals": 3713,
    "compiled_commit_writes": 26,
    "compiled_fallbacks": 0,
}
NETSIM_COUNTS = {
    "executed_events": 448,
    "time_advances": 64,
    "peak_pending_events": 8,
}
SYNC_COUNTS = {
    "messages_posted": 65,
    "null_messages": 65,
    "null_messages_coalesced": 16,
    "windows_granted": 17,
}

ENGINE_COUNTS = {
    "stretches": 83,
    "general_edges": 1,
    "batches_absorbed": 381,
}


@pytest.fixture(scope="module")
def report():
    return run_observed_e1(cells=64)


def test_hdl_kernel_counts_are_pinned(report):
    kernel = report["hdl_kernel"]
    assert {key: kernel[key] for key in HDL_COUNTS} == HDL_COUNTS


def test_netsim_kernel_counts_are_pinned(report):
    netsim = report["netsim_kernel"]
    assert {key: netsim[key] for key in NETSIM_COUNTS} == NETSIM_COUNTS


def test_synchroniser_counts_are_pinned(report):
    (entity,) = report["entities"]
    assert entity["cells_in"] == 64
    assert {key: entity["sync"][key] for key in SYNC_COUNTS} == SYNC_COUNTS


def test_clock_engine_stretch_counts_are_pinned(report):
    """How the engine clocked the run: quiet stretches, edges through
    the general path and waveform batches applied inside a stretch
    (the cost model's inputs; none of them is counted per quiet edge)."""
    engine = report["clock_engine"]
    assert {key: engine[key] for key in ENGINE_COUNTS} == ENGINE_COUNTS


def test_clock_engine_counts_the_cycles_of_an_environment_run(report):
    """``cycles_run`` is the number of rising edges applied, whichever
    entry point drove them (it used to count ``run_cycles`` calls only
    and read 0 after every co-simulation)."""
    engine = report["clock_engine"]
    now = report["hdl_kernel"]["now_ticks"]
    period = engine["period_ticks"]
    # rising edges lie at low + k * period, low = period - period // 2
    assert engine["cycles_run"] == (now + period // 2) // period == 3713
    assert engine["edges_applied"] == 7425
    # one sequential evaluation per rising edge: the DUT is one component
    assert report["hdl_kernel"]["compiled_evals"] == engine["cycles_run"]


# ----------------------------------------------------------------------
# Behavioural DUT under the bursty mix: the network side does all the work
# ----------------------------------------------------------------------
def run_behavioural_mix(cells_per_source=32, seed=0):
    """Four sources (Poisson, on-off, MMPP, Pareto on-off) at mean load
    0.2 per port, seeded random payloads, each through a tap feeding
    ``AccountingUnitBehav`` into a 4-port ``AtmSwitch`` and back to a
    sink.  Returns the netsim kernel snapshot and the DUT records."""
    timebase = TimeBase.for_line_rate()
    cell_time = timebase.cell_time_seconds
    env = CoVerificationEnvironment(timebase=timebase, observe=False)
    dut = AccountingUnitBehav("acct", timebase=timebase)
    entity = env.add_dut(behav=dut)
    switch = AtmSwitch(env.network, "switch", num_ports=4,
                       cell_time=cell_time)
    rate = 0.2 / cell_time
    burst = 10 * cell_time
    peak_period = burst * math.log1p(1.0 / (2 * rate * burst))
    base = seed * 1009
    arrivals = [
        PoissonArrivals(rate=rate, seed=base),
        OnOffSource(peak_period=peak_period, mean_on=burst,
                    mean_off=burst, seed=base + 1),
        MarkovModulatedPoisson(rate_a=1.5 * rate, rate_b=0.5 * rate,
                               mean_sojourn_a=burst, mean_sojourn_b=burst,
                               seed=base + 2),
        ParetoOnOffSource(peak_period=peak_period, mean_on=burst,
                          mean_off=burst, alpha=1.9, seed=base + 3),
    ]
    for port in range(4):
        vci = 100 + port
        switch.install_connection(port, 1, vci, (port + 1) % 4, 1, vci)
        dut.register(1, vci, units_per_cell=2)
        rng = random.Random(base + 17 + port)
        pool = [rng.randbytes(48) for _ in range(cells_per_source)]
        source = TrafficSource(
            f"src{port}", arrivals[port], count=cells_per_source,
            packet_factory=lambda i, v=vci, pool=pool:
                AtmCell.with_payload(1, v, pool[i]).to_packet())
        tap = env.make_cell_tap(f"tap{port}", entity)
        sink = SinkModule("sink")
        host = env.network.add_node(f"host{port}")
        for module in (source, tap, sink):
            host.add_module(module)
        host.connect(source, 0, tap, 0)
        host.bind_port_output(0, tap, 0)
        host.bind_port_input(0, sink, 0)
        env.network.add_link(host, 0, switch.node, port, rate_bps=155.52e6)
        env.network.add_link(switch.node, port, host, 0, rate_bps=155.52e6)
    env.run(until=1.25 * cells_per_source / 0.2 * cell_time)
    entity.send_tariff_tick(env.network.kernel.now + cell_time)
    env.finish()
    return env.network.kernel.stats_snapshot(), list(dut.records)


BEHAV_NETSIM_COUNTS = {
    "executed_events": 889,
    "time_advances": 504,
    "peak_pending_events": 12,
    # the Poisson source's last arrival lies beyond the horizon
    "pending_events": 1,
}
BEHAV_RECORDS_SHA256 = (
    "40b403d4c940046f16031313bb4780b920de06382a575fa02991ea53e805bec4")


def test_behavioural_mix_counts_are_pinned():
    netsim, records = run_behavioural_mix()
    assert {key: netsim[key] for key in BEHAV_NETSIM_COUNTS} \
        == BEHAV_NETSIM_COUNTS
    assert len(records) == 4
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == BEHAV_RECORDS_SHA256


# ----------------------------------------------------------------------
# The response path: random payloads through a port module and back
# ----------------------------------------------------------------------
def run_port_module(cells_per_source=8, seed=0):
    """Four Poisson sources at load 0.2 per port with seeded random
    payloads, each through a tap into ``AtmPortModuleRtl`` (header
    translation VCI -> VCI + 100) coupled with ``rx_port`` and
    ``tx_port``.  Returns the environment and the entity."""
    timebase = TimeBase.for_line_rate()
    cell_time = timebase.cell_time_seconds
    env = CoVerificationEnvironment(timebase=timebase, observe=False)
    dut = AtmPortModuleRtl(env.hdl, "port", env.clk)
    entity = env.add_dut(rx_port=dut.rx, tx_port=dut.tx)
    switch = AtmSwitch(env.network, "switch", num_ports=4,
                       cell_time=cell_time)
    for port in range(4):
        vci = 100 + port
        switch.install_connection(port, 1, vci, (port + 1) % 4, 1, vci)
        dut.install(1, vci, 2, vci + 100)
        rng = random.Random(seed * 1009 + 17 + port)
        pool = [rng.randbytes(48) for _ in range(cells_per_source)]
        source = TrafficSource(
            f"src{port}", PoissonArrivals(rate=0.2 / cell_time,
                                          seed=seed * 1009 + port),
            count=cells_per_source,
            packet_factory=lambda i, v=vci, pool=pool:
                AtmCell.with_payload(1, v, pool[i]).to_packet())
        tap = env.make_cell_tap(f"tap{port}", entity)
        sink = SinkModule("sink")
        host = env.network.add_node(f"host{port}")
        for module in (source, tap, sink):
            host.add_module(module)
        host.connect(source, 0, tap, 0)
        host.bind_port_output(0, tap, 0)
        host.bind_port_input(0, sink, 0)
        env.network.add_link(host, 0, switch.node, port, rate_bps=155.52e6)
        env.network.add_link(switch.node, port, host, 0, rate_bps=155.52e6)
    env.run()
    env.finish()
    return env, entity


PORT_HDL_COUNTS = {
    "now_ticks": 154675,
    "events_executed": 7884,
    "signal_events": 7880,
    "delta_cycles": 9470,
    "process_runs": 1703,
    "waveforms_scheduled": 32,
    "waveform_events": 1816,
    "pending_events": 0,
    "signals": 7,
    "processes": 1,
    "compiled_components": 2,
    "compiled_evals": 6066,
    "compiled_commit_writes": 1779,
    "compiled_fallbacks": 0,
}
PORT_SYNC_COUNTS = {
    "messages_posted": 32,
    "null_messages": 125,
    "null_messages_coalesced": 86,
    "windows_granted": 32,
    "messages_released": 32,
    "ticks_simulated": 149269,
}
PORT_OUTPUT_SHA256 = (
    "b12c6fc33cf8354ee4aed5d853347d2cf4522050af482bf2acc0eb058ac92867")


def test_response_path_counts_are_pinned():
    env, entity = run_port_module()
    assert env.hdl.stats_snapshot() == PORT_HDL_COUNTS
    snapshot = entity.snapshot()
    assert {key: snapshot["sync"][key] for key in PORT_SYNC_COUNTS} \
        == PORT_SYNC_COUNTS
    assert (snapshot["cells_in"], snapshot["output_cells"]) == (32, 32)
    # every output cell with the HDL time it left the DUT
    outputs = [(when, cell.to_octets())
               for when, cell in entity.output_cells]
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == PORT_OUTPUT_SHA256


# ----------------------------------------------------------------------
# A two-shard behavioural chain: what the chain driver feeds each shard
# ----------------------------------------------------------------------
CHAIN_COUNTS = {
    # shard: (ops_sent, cells_in, output_cells, clocks, records sha256)
    "shard0": (74, 32, 23, 5141, "8becf429d59764a07650b1dbe902801c"
                                 "8bd717b4df5ac426dea66e102d486bbf"),
    "shard1": (96, 55, 49, 5565, "06c197464c00af7e739640bdc8ef45ae"
                                 "0da25e133073bd8c3971b886e0f47c80"),
}
CHAIN_DIGEST = (
    "2a90ef30fb34eb94ac1afde0397c571daed1ed4438c12517ccae894d30dfb4f1")


def test_two_shard_chain_counts_are_pinned():
    """``ops_sent`` and the downstream ``cells_in`` move with any change
    to which outputs are forwarded in which window; the digest and the
    record hashes move with any change to how a shard replays them."""
    spec = TopologySpec(shards=[ShardSpec("shard0", level="behav"),
                                ShardSpec("shard1", level="behav")],
                        cells=32, seed=0, chain=True, window_slots=32)
    report = run_topology(spec, mode="local")
    counts = {}
    for shard in report["shards"]:
        result = shard["result"]
        counts[shard["id"]] = (
            shard["exchange"]["ops_sent"], result["cells_in"],
            result["output_cells"], result["clocks"],
            hashlib.sha256(repr(result["records"]).encode()).hexdigest())
    assert counts == CHAIN_COUNTS
    assert report["digest"] == CHAIN_DIGEST
