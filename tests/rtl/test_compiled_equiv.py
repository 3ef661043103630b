"""Event-vs-compiled backend equivalence (the tentpole correctness bar).

Every RTL component carrying a compile hook must be **trace-identical**
on the compiled (levelized) backend and on the event kernel: the same
stimulus driven through both backends must produce equivalent VCD
waveforms (``compare_waveforms`` — final value per signal per
timestamp), the same received cells and the same device counters, on
both the event-driven clock and the :class:`CycleEngine`.  A seeded
randomized replay hammers the four-port switch fabric the same way.
"""

import random

import pytest

from repro.atm import AtmCell
from repro.hdl import (CycleEngine, Simulator, UnsupportedFeature,
                       VcdData, VcdWriter, compare_waveforms)
from repro.rtl import (AccountingMgmtSlave, AccountingUnitRtl,
                       AtmPortModuleRtl, AtmSwitchRtl, CellReceiver,
                       CellSender, CellStreamPort, Counter, HecChecker,
                       HecGenerator, Register, SyncFifo, UpcPolicerRtl)

PERIOD = 10
CLOCKINGS = ("event", "cycle")
BACKENDS = ("event", "compiled")


def make_sim(clocking, backend):
    sim = Simulator()
    sim.rtl_backend = backend
    clk = sim.signal("clk", init="0")
    if clocking == "event":
        sim.add_clock(clk, period=PERIOD)
    else:
        CycleEngine(sim, clk, period=PERIOD)
    return sim, clk


def make_cell(vpi, vci, seed):
    return AtmCell.with_payload(vpi, vci,
                                [(seed + k) % 256
                                 for k in range(4)]).to_octets()


def assert_same_waveform(paths):
    diffs = compare_waveforms(VcdData.parse(paths["event"]),
                              VcdData.parse(paths["compiled"]))
    assert diffs == [], f"compiled backend diverged: {diffs[:5]}"


# ---------------------------------------------------------------------------
# Per-component equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("clocking", CLOCKINGS)
def test_port_module_equivalent(tmp_path, clocking):
    paths, results = {}, {}
    for backend in BACKENDS:
        sim, clk = make_sim(clocking, backend)
        pm = AtmPortModuleRtl(sim, "pm", clk)
        pm.install(1, 100, 2, 200)
        sender = CellSender(sim, "gen", clk, port=pm.rx)
        receiver = CellReceiver(sim, "mon", clk, pm.tx)
        for i in range(3):
            sender.send(make_cell(1, 100, i))
        sender.send(make_cell(9, 999, 50))       # unknown -> dropped
        path = tmp_path / f"pm_{clocking}_{backend}.vcd"
        with VcdWriter(sim, path,
                       [clk] + pm.rx.signals() + pm.tx.signals()):
            sim.run(until=5 * 53 * PERIOD + 400)
        assert pm.backends["seq"] == backend
        assert sim.compiled_fallbacks == 0
        paths[backend] = path
        results[backend] = (receiver.cells, pm.cells_received,
                            pm.cells_translated,
                            pm.unknown_connections)
    assert results["compiled"] == results["event"]
    assert len(results["event"][0]) == 3
    assert_same_waveform(paths)


@pytest.mark.parametrize("clocking", CLOCKINGS)
def test_policer_equivalent(tmp_path, clocking):
    paths, results = {}, {}
    for backend in BACKENDS:
        sim, clk = make_sim(clocking, backend)
        upc = UpcPolicerRtl(sim, "upc", clk, action="drop")
        # tight contract: back-to-back cells on (1, 100) violate it
        upc.install_contract(1, 100, increment_clocks=150)
        sender = CellSender(sim, "gen", clk, port=upc.rx)
        receiver = CellReceiver(sim, "mon", clk, upc.tx)
        for i in range(4):
            sender.send(make_cell(1, 100, i))
        path = tmp_path / f"upc_{clocking}_{backend}.vcd"
        with VcdWriter(sim, path,
                       [clk] + upc.rx.signals() + upc.tx.signals()):
            sim.run(until=6 * 53 * PERIOD + 400)
        assert upc.backends["seq"] == backend
        assert sim.compiled_fallbacks == 0
        paths[backend] = path
        results[backend] = (receiver.cells, upc.cells_conforming,
                            upc.cells_non_conforming)
    assert results["compiled"] == results["event"]
    assert results["event"][2] > 0               # contract did bite
    assert_same_waveform(paths)


def build_switch(sim, clk, num_ports=4):
    """The E1 fabric shape: N ports, cross-wired connections."""
    switch = AtmSwitchRtl(sim, "sw", clk, num_ports=num_ports,
                          lookup_latency=3, queue_depth=8)
    for port in range(num_ports):
        out_port = (port + 1) % num_ports
        switch.install_connection(port, 1, 100 + port, out_port,
                                  2, 200 + port)
    senders = [CellSender(sim, f"gen{p}", clk, port=switch.rx_ports[p])
               for p in range(num_ports)]
    receivers = [CellReceiver(sim, f"mon{p}", clk, switch.tx_ports[p])
                 for p in range(num_ports)]
    return switch, senders, receivers


@pytest.mark.parametrize("clocking", CLOCKINGS)
def test_switch_fabric_equivalent(tmp_path, clocking):
    paths, results = {}, {}
    for backend in BACKENDS:
        sim, clk = make_sim(clocking, backend)
        switch, senders, receivers = build_switch(sim, clk)
        for port, sender in enumerate(senders):
            for i in range(2):
                sender.send(make_cell(1, 100 + port, port * 10 + i))
        senders[0].send(make_cell(7, 777, 99))   # unknown -> dropped
        signals = [clk]
        for bundle in switch.rx_ports + switch.tx_ports:
            signals += bundle.signals()
        path = tmp_path / f"sw_{clocking}_{backend}.vcd"
        with VcdWriter(sim, path, signals):
            sim.run(until=8 * 53 * PERIOD + 800)
        assert switch.backends["seq"] == backend
        assert switch.gcu.backends["seq"] == backend
        assert sim.compiled_fallbacks == 0
        paths[backend] = path
        results[backend] = (
            [r.cells for r in receivers], switch.cells_received,
            switch.cells_switched, switch.cells_dropped_unknown,
            switch.gcu.lookups_served, switch.gcu.lookup_misses)
    assert results["compiled"] == results["event"]
    assert results["event"][2] == 8              # 2 cells x 4 ports
    assert results["event"][3] == 1
    assert_same_waveform(paths)


# ---------------------------------------------------------------------------
# Census: on a default simulator every shipped compile hook compiles
# ---------------------------------------------------------------------------

def test_every_shipped_component_compiles_on_a_default_simulator():
    """No shipped component may reach the event kernel through the
    silent fallback: on an untouched ``Simulator`` every process with
    a compile hook lands on the compiled kernel."""
    sim = Simulator()
    assert sim.rtl_backend == "compiled"
    clk = sim.signal("clk", init="0")
    CycleEngine(sim, clk, period=PERIOD)
    port_module = AtmPortModuleRtl(sim, "pm", clk)
    switch = AtmSwitchRtl(sim, "sw", clk, num_ports=4)
    accounting = AccountingUnitRtl(sim, "acct", clk)
    components = [
        port_module, switch, switch.gcu, accounting,
        UpcPolicerRtl(sim, "upc", clk),
        CellReceiver(sim, "mon", clk, port_module.tx),
        SyncFifo(sim, "fifo", clk, width=8, depth=4),
        Register(sim, "reg", clk, sim.signal("reg.d", width=8, init=0)),
        Counter(sim, "count", clk, width=8),
        HecGenerator(sim, "hecgen", clk),
        HecChecker(sim, "hecchk", clk),
        AccountingMgmtSlave(sim, "mgmt", clk, accounting),
    ]
    for component in components:
        assert component.backends, component.name
        assert set(component.backends.values()) == {"compiled"}, (
            component.name, component.backends)
    stats = sim.stats_snapshot()
    assert stats["compiled_fallbacks"] == 0
    assert stats["compiled_components"] == sum(
        len(component.backends) for component in components)
    sim.run(until=4 * PERIOD)                    # and the kernel runs


# ---------------------------------------------------------------------------
# Fallback behaviour
# ---------------------------------------------------------------------------

def test_unsupported_component_falls_back_and_matches(monkeypatch):
    """A compile hook that refuses -> event kernel hosts the process,
    the run is unchanged, the fallback is counted."""
    def refuse(self, ctx):
        raise UnsupportedFeature("forced for the fallback test")

    monkeypatch.setattr(AtmPortModuleRtl, "_compile_seq", refuse)
    cells_out = {}
    for backend in BACKENDS:
        sim, clk = make_sim("cycle", backend)
        pm = AtmPortModuleRtl(sim, "pm", clk)
        pm.install(1, 100, 2, 200)
        sender = CellSender(sim, "gen", clk, port=pm.rx)
        receiver = CellReceiver(sim, "mon", clk, pm.tx)
        for i in range(2):
            sender.send(make_cell(1, 100, i))
        sim.run(until=4 * 53 * PERIOD)
        assert pm.backends["seq"] == "event"
        expected = 1 if backend == "compiled" else 0
        assert sim.compiled_fallbacks == expected
        cells_out[backend] = receiver.cells
    assert cells_out["compiled"] == cells_out["event"]
    assert len(cells_out["event"]) == 2


def test_contended_output_falls_back():
    """An output another compiled process already writes makes the
    second component uncompilable -> it falls back and is counted."""
    sim, clk = make_sim("cycle", "compiled")
    first = AtmPortModuleRtl(sim, "a", clk)
    second = AtmPortModuleRtl(sim, "b", clk, tx=first.tx)
    assert first.backends["seq"] == "compiled"
    assert second.backends["seq"] == "event"     # tx already written
    assert sim.compiled_fallbacks == 1


def test_testbench_driven_output_falls_back():
    """A test-bench driver on a would-be output blocks compilation."""
    sim, clk = make_sim("cycle", "compiled")
    bundle = CellStreamPort(sim, "ext")
    bundle.valid.drive("0")                      # anonymous driver
    sim.run(until=PERIOD)
    contended = AtmPortModuleRtl(sim, "b", clk, tx=bundle)
    assert contended.backends["seq"] == "event"
    assert sim.compiled_fallbacks == 1


# ---------------------------------------------------------------------------
# Seeded randomized replay
# ---------------------------------------------------------------------------

def random_traffic(seed, num_ports, count):
    rng = random.Random(seed)
    traffic = [[] for _ in range(num_ports)]
    for i in range(count):
        port = rng.randrange(num_ports)
        if rng.random() < 0.15:                  # unknown connection
            cell = make_cell(7, 700 + rng.randrange(8), i)
        else:
            cell = make_cell(1, 100 + port, i)
        traffic[port].append(cell)
    return traffic


@pytest.mark.parametrize("seed", [2026, 808])
def test_randomized_switch_replay_equivalent(tmp_path, seed):
    num_ports = 4
    traffic = random_traffic(seed, num_ports, 24)
    paths, results = {}, {}
    for backend in BACKENDS:
        sim, clk = make_sim("cycle", backend)
        switch, senders, receivers = build_switch(sim, clk, num_ports)
        assert switch.backends["seq"] == backend
        assert sim.compiled_fallbacks == 0
        for port, cells in enumerate(traffic):
            for cell in cells:
                senders[port].send(cell)
        signals = [clk]
        for bundle in switch.rx_ports + switch.tx_ports:
            signals += bundle.signals()
        path = tmp_path / f"rand{seed}_{backend}.vcd"
        with VcdWriter(sim, path, signals):
            sim.run(until=30 * 53 * PERIOD + 2000)
        paths[backend] = path
        results[backend] = (
            [r.cells for r in receivers], switch.cells_received,
            switch.cells_switched, switch.cells_dropped_unknown,
            switch.cells_dropped_overflow, switch.hec_errors,
            switch.backlog())
    assert results["compiled"] == results["event"]
    received, total, switched = (results["event"][0],
                                 results["event"][1],
                                 results["event"][2])
    assert total == 24
    assert sum(len(cells) for cells in received) == switched
    assert_same_waveform(paths)


def test_compiled_run_is_byte_deterministic(tmp_path):
    """Two identical compiled runs dump byte-identical VCDs."""
    dumps = []
    for tag in ("one", "two"):
        sim, clk = make_sim("cycle", "compiled")
        switch, senders, _receivers = build_switch(sim, clk)
        assert switch.backends["seq"] == "compiled"
        assert sim.compiled_fallbacks == 0
        for port, cells in enumerate(random_traffic(42, 4, 12)):
            for cell in cells:
                senders[port].send(cell)
        signals = [clk]
        for bundle in switch.rx_ports + switch.tx_ports:
            signals += bundle.signals()
        path = tmp_path / f"det_{tag}.vcd"
        with VcdWriter(sim, path, signals):
            sim.run(until=16 * 53 * PERIOD + 1200)
        dumps.append(path.read_bytes())
    assert dumps[0] == dumps[1]
