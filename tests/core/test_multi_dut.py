"""Integration: several DUTs coupled into one environment.

The paper: "the HW functionality itself is distributed over a number
of hardware devices" — one network-level test bench must drive several
coupled devices at once.
"""


from repro.atm import AccountingUnit, AtmCell, Tariff
from repro.core import CoVerificationEnvironment
from repro.rtl import AccountingUnitRtl, AtmPortModuleRtl
from repro.traffic import ConstantBitRate, TrafficSource

CELL_PERIOD = 4e-6


def build_two_dut_env(cells=8):
    """One tap feeds both a port module and an accounting unit."""
    env = CoVerificationEnvironment()
    translator = AtmPortModuleRtl(env.hdl, "pm", env.clk)
    translator.install(1, 100, 2, 200)
    accountant = AccountingUnitRtl(env.hdl, "acct", env.clk)
    accountant.register(1, 100, units_per_cell=1)

    entity_pm = env.add_dut(rx_port=translator.rx,
                            tx_port=translator.tx)
    entity_acct = env.add_dut(rx_port=accountant.rx,
                              tick_signal=accountant.tariff_tick)

    host = env.network.add_node("host")
    source = TrafficSource(
        "src", ConstantBitRate(period=CELL_PERIOD),
        packet_factory=lambda i: AtmCell.with_payload(
            1, 100, [i % 256]).to_packet(),
        count=cells)
    tap = env.make_cell_tap("tap", entity_pm, entity_acct,
                            forward=False)
    host.add_module(source)
    host.add_module(tap)
    host.connect(source, 0, tap, 0)
    return env, translator, accountant, entity_pm, entity_acct


def test_both_duts_receive_every_cell():
    env, translator, accountant, e_pm, e_acct = build_two_dut_env(8)
    env.run()
    env.finish()
    assert e_pm.cells_in == 8
    assert e_acct.cells_in == 8
    assert translator.cells_translated == 8
    assert accountant.cells_seen == 8


def test_both_duts_agree_with_their_references():
    env, translator, accountant, e_pm, e_acct = build_two_dut_env(6)
    reference = AccountingUnit(drop_unknown=True)
    reference.register(1, 100, Tariff(units_per_cell=1))
    translated = []
    e_pm.on_output = lambda t, c: translated.append((c.vpi, c.vci))
    env.run()
    for _ in range(6):
        reference.cell_arrival(1, 100)
    env.finish()
    assert translated == [(2, 200)] * 6
    record, = reference.close_interval()
    assert accountant.interval_cells(1, 100) \
        == (record.cells_clp0, record.cells_clp1)


def test_each_entity_has_independent_sync_state():
    env, translator, accountant, e_pm, e_acct = build_two_dut_env(4)
    env.run()
    env.finish()
    assert e_pm.sync is not e_acct.sync
    assert e_pm.sync.stats.messages_posted == 4
    assert e_acct.sync.stats.messages_posted == 4
    # both obey the lag invariant against the same netsim clock
    horizon = env.network.kernel.now
    for entity in (e_pm, e_acct):
        assert entity.sync.stats.max_lag_seconds >= 0.0
