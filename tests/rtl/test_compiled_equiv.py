"""Event-vs-compiled backend equivalence (the tentpole correctness bar).

Every RTL component carrying a compile hook must be **trace-identical**
on the compiled (levelized) backend and on the event kernel: the same
stimulus driven through both backends must produce equivalent VCD
waveforms (``compare_waveforms`` — final value per signal per
timestamp), the same received cells and the same device counters, on
both the event-driven clock and the :class:`CycleEngine`.  A seeded
randomized replay hammers the four-port switch fabric the same way.
Every one of the eleven shipped components is covered; the nine below
the fabric are driven directly by seeded stimulus.
"""

import random

import pytest

from repro.atm import AtmCell
from repro.hdl import (CompiledKernel, CycleEngine, Simulator,
                       UnsupportedFeature)
from repro.reference import VcdData, VcdWriter, compare_waveforms
from repro.rtl import (AccountingUnitRtl, AtmPortModuleRtl, AtmSwitchRtl,
                       CellReceiver, CellSender, CellStreamPort, Counter,
                       HecChecker, HecGenerator, RecordBusMonitor,
                       Register, UpcPolicerRtl, crc8_step)

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
# The remaining shipped components under directly driven stimulus
# ---------------------------------------------------------------------------

def play(sim, steps):
    """Apply ``steps[k]`` (``{signal: value}``) at tick ``k*PERIOD + 1``,
    between two rising edges, so rising edge k samples it."""
    sim.schedule_waveform(
        [(k * PERIOD + 1, signal, value)
         for k, step in enumerate(steps)
         for signal, value in step.items()], start=0)


def run_both_backends(tmp_path, tag, clocking, bench):
    """Build *bench* on each backend and run it under a VCD writer;
    demand identical waveforms and observations.  ``bench(sim, clk)``
    returns ``(components, signals, run)``, where ``run()`` exercises
    the bench and returns what it observed.  Returns the event
    backend's observation."""
    paths, observed = {}, {}
    for backend in BACKENDS:
        sim, clk = make_sim(clocking, backend)
        components, signals, run = bench(sim, clk)
        path = tmp_path / f"{tag}_{clocking}_{backend}.vcd"
        with VcdWriter(sim, path, [clk] + signals):
            observed[backend] = run()
        for component in components:
            assert set(component.backends.values()) == {backend}, (
                component.name, component.backends)
        assert sim.compiled_fallbacks == 0
        paths[backend] = path
    assert observed["compiled"] == observed["event"]
    assert_same_waveform(paths)
    return observed["event"]


def run_for(sim, cycles, observe):
    """A bench ``run``: *cycles* clocks, then *observe()*."""
    def run():
        sim.run(until=cycles * PERIOD)
        return observe()
    return run


@pytest.mark.parametrize("clocking", CLOCKINGS)
def test_register_equivalent(tmp_path, clocking):
    """Vector and scalar registers, with enable, synchronous reset and
    metavalues on ``d`` and in the reset value."""
    def bench(sim, clk):
        d = sim.signal("d", width=4, init=0)
        ds = sim.signal("ds", init="0")
        en = sim.signal("en", init="1")
        rst = sim.signal("rst", init="0")
        gated = Register(sim, "gated", clk, d, enable=en, reset=rst,
                         reset_value="0X1Z")
        plain = Register(sim, "plain", clk, d)
        scalar = Register(sim, "scalar", clk, ds, reset=rst,
                          reset_value=1)
        rng = random.Random(5)
        words = [3, 7, 12, "X01Z", "ZZZZ", "UUUU", 0, 15]
        steps = [{d: rng.choice(words), ds: rng.choice("01XZ"),
                  en: "1" if rng.random() < 0.7 else "0",
                  rst: "1" if rng.random() < 0.15 else "0"}
                 for _ in range(40)]
        play(sim, steps)
        registers = [gated, plain, scalar]
        signals = [d, ds, en, rst] + [r.q for r in registers]
        return registers, signals, run_for(sim, 45, lambda: tuple(
            r.q.value for r in registers))

    run_both_backends(tmp_path, "reg", clocking, bench)


@pytest.mark.parametrize("clocking", CLOCKINGS)
def test_counter_equivalent(tmp_path, clocking):
    def bench(sim, clk):
        en = sim.signal("en", init="0")
        rst = sim.signal("rst", init="0")
        gated = Counter(sim, "gated", clk, width=3, enable=en, reset=rst)
        free = Counter(sim, "free", clk, width=2)
        rng = random.Random(3)
        play(sim, [{en: "1" if rng.random() < 0.6 else "0",
                    rst: "1" if rng.random() < 0.1 else "0"}
                   for _ in range(40)])
        counters = [gated, free]
        signals = [en, rst, gated.q, free.q]
        return counters, signals, run_for(sim, 45, lambda: tuple(
            c.q.value for c in counters))

    run_both_backends(tmp_path, "count", clocking, bench)


def header_steps(dut, headers, rng):
    """Octet-stream steps for *headers* (octet lists, sof on octet 0),
    with idle clocks and an abandoned partial header mixed in."""
    steps = []
    for header in headers:
        if rng.random() < 0.3:                   # abandoned after 2
            steps += [{dut.d: 0xFF, dut.d_valid: "1",
                       dut.sof: "1" if j == 0 else "0"} for j in range(2)]
        steps += [{dut.d: octet, dut.d_valid: "1",
                   dut.sof: "1" if j == 0 else "0"}
                  for j, octet in enumerate(header)]
        steps += [{dut.d_valid: "0", dut.sof: "0"}] * rng.randrange(3)
    return steps


@pytest.mark.parametrize("clocking", CLOCKINGS)
def test_hec_generator_equivalent(tmp_path, clocking):
    def bench(sim, clk):
        gen = HecGenerator(sim, "hecgen", clk)
        rng = random.Random(17)
        # some headers carry a fifth octet: past the count, ignored
        headers = [[rng.randrange(256) for _ in range(rng.choice((4, 5)))]
                   for _ in range(8)]
        steps = header_steps(gen, headers, rng)
        play(sim, steps)
        signals = [gen.d, gen.d_valid, gen.sof, gen.hec, gen.hec_valid]
        return [gen], signals, run_for(sim, len(steps) + 5,
                                       lambda: gen.hec.value)

    run_both_backends(tmp_path, "hecgen", clocking, bench)


@pytest.mark.parametrize("clocking", CLOCKINGS)
def test_hec_checker_equivalent(tmp_path, clocking):
    def bench(sim, clk):
        chk = HecChecker(sim, "hecchk", clk)
        rng = random.Random(23)
        headers = []
        for _ in range(8):
            header = [rng.randrange(256) for _ in range(4)]
            crc = 0
            for octet in header:
                crc = crc8_step(crc, octet)
            hec = crc ^ 0x55
            if rng.random() < 0.4:
                hec ^= 1 << rng.randrange(8)     # corrupted HEC
            headers.append(header + [hec])
        steps = header_steps(chk, headers, rng)
        play(sim, steps)
        signals = [chk.d, chk.d_valid, chk.sof, chk.ok, chk.err]
        return [chk], signals, run_for(sim, len(steps) + 5, lambda: (
            chk.headers_checked, chk.errors_seen))

    checked, errors = run_both_backends(tmp_path, "hecchk", clocking,
                                        bench)
    assert checked == 8 and 0 < errors < 8


@pytest.mark.parametrize("bug", [None, "lost_tick"])
@pytest.mark.parametrize("clocking", CLOCKINGS)
def test_accounting_unit_equivalent(tmp_path, clocking, bug):
    def bench(sim, clk):
        unit = AccountingUnitRtl(sim, "acct", clk, bug=bug)
        unit.register(1, 100, units_per_cell=2, units_per_cell_clp1=1,
                      fixed_units=3)
        unit.register(1, 101)
        monitor = RecordBusMonitor(sim, "records", clk, unit)
        sender = CellSender(sim, "gen", clk, port=unit.rx)
        for vpi, vci, clp in ((1, 100, 0), (1, 100, 1), (1, 101, 0),
                              (9, 9, 0), (0, 0, 0), (1, 100, 0)):
            sender.send(AtmCell.with_payload(vpi, vci, [vci % 256],
                                             clp=clp).to_octets())
        steps = [{} for _ in range(400)]
        for tick in (120, 250, 330, 340):
            steps[tick] = {unit.tariff_tick: "1"}
            steps[tick + 1] = {unit.tariff_tick: "0"}
        play(sim, steps)
        signals = unit.rx.signals() + [unit.tariff_tick, unit.rec_valid,
                                       unit.rec_word]
        return [unit, monitor], signals, run_for(sim, 420, lambda: (
            unit.counters(), unit.interval, unit.output_backlog_words,
            monitor.words))

    counters, _interval, backlog, words = run_both_backends(
        tmp_path, "acct", clocking, bench)
    assert counters["cells_seen"] == 5 and counters["records_emitted"] > 0
    # the monitor captured every record word the unit streamed out
    assert len(words) + backlog == 6 * counters["records_emitted"]


@pytest.mark.parametrize("clocking", CLOCKINGS)
def test_cell_receiver_equivalent(tmp_path, clocking):
    """The receiver as the device under test: stray octets, a cell
    restarted mid-way by a new cellsync, a valid-low pause inside a
    cell, back-to-back cells and idle gaps."""
    def bench(sim, clk):
        port = CellStreamPort(sim, "rx")
        receiver = CellReceiver(sim, "mon", clk, port)
        cells = [make_cell(1, 100 + i, 10 * i) for i in range(4)]

        def octets(cell, count=None):
            return [{port.atmdata: octet, port.valid: "1",
                     port.cellsync: "1" if j == 0 else "0"}
                    for j, octet in enumerate(cell[:count])]

        idle = {port.valid: "0", port.cellsync: "0"}
        stray = {port.atmdata: 0x5A, port.valid: "1", port.cellsync: "0"}
        paused = octets(cells[2])
        steps = ([idle] * 3 + [stray] * 2 + octets(cells[0])
                 + [idle] * 5 + octets(cells[1], 20)
                 + paused[:30] + [idle] * 3 + paused[30:]
                 + octets(cells[3]) + [idle] * 4)
        play(sim, steps)
        return [receiver], port.signals(), run_for(
            sim, len(steps) + 5, lambda: (
                receiver.cells, receiver.framing_errors,
                receiver.collecting))

    cells, framing_errors, collecting = run_both_backends(
        tmp_path, "mon", clocking, bench)
    assert len(cells) == 3 and framing_errors == 3 and not collecting


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
        Register(sim, "reg", clk, sim.signal("reg.d", width=8, init=0)),
        Counter(sim, "count", clk, width=8),
        HecGenerator(sim, "hecgen", clk),
        HecChecker(sim, "hecchk", clk),
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
    """A compiler that refuses the port module -> the event kernel hosts
    the process, the run is unchanged, the fallback is counted."""
    add_seq = CompiledKernel.add_seq

    def refuse_port_module(kernel, label, build):
        if label == "pm.seq":
            raise UnsupportedFeature("forced for the fallback test")
        add_seq(kernel, label, build)

    monkeypatch.setattr(CompiledKernel, "add_seq", refuse_port_module)
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
