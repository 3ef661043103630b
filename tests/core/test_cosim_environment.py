"""Integration tests: the full co-verification loop of Figure 1/2.

Network-level traffic drives an RTL DUT through the co-simulation
entity; DUT responses are compared against the algorithm reference
model at the system level.
"""

import pytest

from repro.atm import AccountingUnit, AtmCell, Tariff
from repro.core import CoVerificationEnvironment, StreamComparator, TapModule
from repro.netsim import SinkModule
from repro.rtl import (AccountingUnitRtl, AtmPortModuleRtl, RECORD_WORDS)
from repro.traffic import ConstantBitRate, TrafficSource

CELL_PERIOD = 4e-6  # comfortably above the 53-clock cell time


def build_port_module_env(lockstep=False, cells=10):
    """Traffic -> tap -> sink in netsim; port-module RTL as the DUT."""
    env = CoVerificationEnvironment(lockstep=lockstep)
    dut = AtmPortModuleRtl(env.hdl, "dut", env.clk)
    dut.install(1, 100, 2, 200)
    entity = env.add_dut(rx_port=dut.rx, tx_port=dut.tx)

    node = env.network.add_node("host")
    source = TrafficSource(
        "src", ConstantBitRate(period=CELL_PERIOD),
        packet_factory=lambda i: AtmCell.with_payload(
            1, 100, [i % 256]).to_packet(),
        count=cells)
    tap = env.make_cell_tap("tap", entity)
    sink = SinkModule("sink", keep=True)
    for module in (source, tap, sink):
        node.add_module(module)
    node.connect(source, 0, tap, 0)
    node.connect(tap, 0, sink, 0)
    return env, dut, entity, sink


class TestPortModuleCoverification:
    def test_all_cells_cross_the_boundary(self):
        env, dut, entity, sink = build_port_module_env(cells=5)
        env.run()
        env.finish()
        assert entity.cells_in == 5
        assert dut.cells_translated == 5
        assert len(entity.output_cells) == 5

    def test_dut_output_matches_reference_translation(self):
        env, dut, entity, sink = build_port_module_env(cells=8)
        comparator = env.comparator("port-module")
        entity.on_output = lambda t, cell: comparator.add_observed(
            (cell.vpi, cell.vci, cell.payload[0]))
        env.run()
        env.finish()
        # reference: the abstract translation applied to the tapped cells
        for packet in sink.received:
            cell = AtmCell.from_packet(packet)
            comparator.add_reference((2, 200, cell.payload[0]))
        report = comparator.compare()
        assert report.passed, report.summary()
        assert report.matched == 8

    def test_injected_rtl_bug_is_caught(self):
        """Mis-programming the translation RAM must FAIL the compare —
        the whole point of the environment."""
        env, dut, entity, sink = build_port_module_env(cells=4)
        dut.install(1, 100, 2, 999)  # wrong outgoing VCI
        comparator = env.comparator("port-module-buggy")
        entity.on_output = lambda t, cell: comparator.add_observed(
            (cell.vpi, cell.vci))
        env.run()
        env.finish()
        for _packet in sink.received:
            comparator.add_reference((2, 200))
        assert not comparator.compare().passed

    def test_hdl_time_lags_netsim_time_throughout(self):
        env, dut, entity, sink = build_port_module_env(cells=6)
        env.run()
        assert (env.timebase.to_seconds(env.hdl.now)
                <= env.network.kernel.now + 1e-12)
        env.finish()

    def test_lockstep_gives_same_functional_result(self):
        results = {}
        for lockstep in (False, True):
            env, dut, entity, sink = build_port_module_env(
                lockstep=lockstep, cells=5)
            env.run()
            env.finish()
            results[lockstep] = [(c.vpi, c.vci, c.payload[0])
                                 for _t, c in entity.output_cells]
        assert results[False] == results[True]

    def test_conservative_needs_fewer_sync_exchanges(self):
        """The §3.1 performance claim: the timing-window protocol
        synchronises per message, the naive coupling per clock."""
        exchanges = {}
        for lockstep in (False, True):
            env, dut, entity, sink = build_port_module_env(
                lockstep=lockstep, cells=5)
            env.run()
            env.finish()
            stats = entity.sync.stats
            exchanges[lockstep] = (stats.messages_posted
                                   + stats.null_messages)
        assert exchanges[False] < exchanges[True]


def build_accounting_env(bug=None, cells=12, lockstep=False):
    env = CoVerificationEnvironment(lockstep=lockstep)
    dut = AccountingUnitRtl(env.hdl, "acct", env.clk, bug=bug)
    dut.register(1, 100, units_per_cell=2, units_per_cell_clp1=1)
    dut.register(1, 200, units_per_cell=3)
    entity = env.add_dut(rx_port=dut.rx, tick_signal=dut.tariff_tick)

    reference = AccountingUnit(drop_unknown=True)
    reference.register(1, 100, Tariff(units_per_cell=2,
                                      units_per_cell_clp1=1))
    reference.register(1, 200, Tariff(units_per_cell=3))

    def factory(i):
        if i % 3 == 2:
            return AtmCell.with_payload(1, 200, [i % 256]).to_packet()
        return AtmCell.with_payload(1, 100, [i % 256],
                                    clp=i % 2).to_packet()

    node = env.network.add_node("host")
    source = TrafficSource("src", ConstantBitRate(period=CELL_PERIOD),
                           packet_factory=factory, count=cells)
    tap = env.make_cell_tap("tap", entity, forward=False)
    tap.add_hook(lambda t, pkt: reference.cell_arrival(
        pkt["VPI"], pkt["VCI"], clp=pkt.get("CLP", 0)))
    node.add_module(source)
    node.add_module(tap)
    node.connect(source, 0, tap, 0)
    return env, dut, entity, reference


def collect_dut_records(env, dut):
    """Sample the record output bus for the whole drain period."""
    words = []

    def gen():
        from repro.hdl import RisingEdge
        while True:
            yield RisingEdge(env.clk)
            if dut.rec_valid.value == "1":
                words.append(dut.rec_word.as_int())

    env.hdl.add_generator("records", gen())
    return words


class TestAccountingCoverification:
    def run_case(self, bug=None):
        env, dut, entity, reference = build_accounting_env(bug=bug)
        words = collect_dut_records(env, dut)
        env.run()
        # close the tariff interval through the coupling
        entity.send_tariff_tick(env.network.kernel.now + CELL_PERIOD)
        env.finish()
        # let the record FIFO drain
        env.hdl.run(until=env.hdl.now
                    + 40 * env.timebase.clock_period_ticks)
        dut_records = [tuple(words[i:i + RECORD_WORDS])
                       for i in range(0, len(words), RECORD_WORDS)]
        ref_records = [(r.vpi, r.vci, r.interval, r.cells_clp0,
                        r.cells_clp1, r.charge_units)
                       for r in reference.close_interval()]
        comparator = StreamComparator("accounting", normalize="sorted")
        comparator.extend_reference(ref_records)
        comparator.extend_observed(dut_records)
        return comparator.compare()

    def test_correct_dut_passes(self):
        report = self.run_case(bug=None)
        assert report.passed, report.summary()
        assert report.matched == 2

    @pytest.mark.parametrize("bug", ["swap_clp", "charge_off_by_one"])
    def test_buggy_dut_fails(self, bug):
        report = self.run_case(bug=bug)
        assert not report.passed


class TestEnvironmentPlumbing:
    def test_tap_without_forwarding_terminates(self):
        env = CoVerificationEnvironment()
        tap = TapModule("tap", forward=False)
        node = env.network.add_node("n")
        node.add_module(tap)
        seen = []
        tap.add_hook(lambda t, p: seen.append(p))
        from repro.netsim import Packet
        tap.receive(Packet(), 0)
        assert len(seen) == 1

    def test_finish_is_idempotent(self):
        env, dut, entity, sink = build_port_module_env(cells=2)
        env.run()
        env.finish()
        outputs = len(entity.output_cells)
        env.finish()
        assert len(entity.output_cells) == outputs

    def test_reports_and_all_passed(self):
        env = CoVerificationEnvironment()
        comp = env.comparator("c")
        comp.add_reference(1)
        comp.add_observed(1)
        reports = env.reports()
        assert len(reports) == 1 and reports[0].passed

    def test_tick_without_signal_rejected(self):
        env = CoVerificationEnvironment()
        dut = AtmPortModuleRtl(env.hdl, "dut", env.clk)
        entity = env.add_dut(rx_port=dut.rx, tx_port=dut.tx)
        with pytest.raises(ValueError):
            entity.send_tariff_tick(1e-6)
