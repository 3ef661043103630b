"""Tests for the RTL accounting unit, co-verified against the
algorithmic reference model — the paper's case study at unit scale."""

import pytest

from repro.atm import AccountingUnit, AtmCell, Tariff
from repro.hdl import RisingEdge, Simulator
from repro.rtl import AccountingUnitRtl, CellSender, RECORD_WORDS


def make_bench(bug=None, table_size=64):
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    sim.add_clock(clk, period=10)
    dut = AccountingUnitRtl(sim, "acct", clk, bug=bug,
                            table_size=table_size)
    sender = CellSender(sim, "tx", clk, port=dut.rx)
    records = []

    def collector(s):
        if clk.rising() and dut.rec_valid.value == "1":
            records.append(dut.rec_word.as_int())

    # sample rec_word one clock after rec_valid was driven
    def gen():
        while True:
            yield RisingEdge(clk)
            if dut.rec_valid.value == "1":
                records.append(dut.rec_word.as_int())

    sim.add_generator("rec_mon", gen())
    return sim, clk, dut, sender, records


def decode_records(words):
    """Group the flat word stream into 6-word records."""
    assert len(words) % RECORD_WORDS == 0
    return [tuple(words[i:i + RECORD_WORDS])
            for i in range(0, len(words), RECORD_WORDS)]


def pulse_tariff(sim, dut, clocks_after=0):
    dut.tariff_tick.drive("1")
    sim.run(until=sim.now + 10)
    dut.tariff_tick.drive("0")
    if clocks_after:
        sim.run(until=sim.now + 10 * clocks_after)


def test_counts_cells_per_connection():
    sim, clk, dut, sender, records = make_bench()
    dut.register(1, 100, units_per_cell=2)
    dut.register(1, 200, units_per_cell=3)
    for _ in range(4):
        sender.send(AtmCell.with_payload(1, 100, []).to_octets())
    sender.send(AtmCell.with_payload(1, 200, []).to_octets())
    sim.run(until=10 * 400)
    pulse_tariff(sim, dut, clocks_after=20)
    recs = decode_records(records)
    assert recs == [(1, 100, 0, 4, 0, 8), (1, 200, 0, 1, 0, 3)]


def test_clp_discrimination():
    sim, clk, dut, sender, records = make_bench()
    dut.register(1, 1, units_per_cell=5, units_per_cell_clp1=1)
    sender.send(AtmCell.with_payload(1, 1, [], clp=0).to_octets())
    sender.send(AtmCell.with_payload(1, 1, [], clp=1).to_octets())
    sim.run(until=10 * 200)
    pulse_tariff(sim, dut, clocks_after=20)
    assert decode_records(records) == [(1, 1, 0, 1, 1, 6)]


def test_unknown_and_idle_cells():
    sim, clk, dut, sender, records = make_bench()
    dut.register(1, 1)
    sender.send(AtmCell.with_payload(9, 9, []).to_octets())  # unknown
    sender.send(AtmCell.idle().to_octets())                  # idle
    sim.run(until=10 * 200)
    assert dut.unknown_cells == 1
    assert dut.cells_seen == 1  # idle cells never counted


def test_interval_advances_and_counters_reset():
    sim, clk, dut, sender, records = make_bench()
    dut.register(1, 1, units_per_cell=1)
    sender.send(AtmCell.with_payload(1, 1, []).to_octets())
    sim.run(until=10 * 100)
    pulse_tariff(sim, dut, clocks_after=20)
    sender.send(AtmCell.with_payload(1, 1, []).to_octets())
    sender.send(AtmCell.with_payload(1, 1, []).to_octets())
    sim.run(until=10 * 400)
    pulse_tariff(sim, dut, clocks_after=20)
    recs = decode_records(records)
    assert recs[0] == (1, 1, 0, 1, 0, 1)
    assert recs[1] == (1, 1, 1, 2, 0, 2)
    assert dut.interval == 2


def test_matches_reference_model_on_mixed_traffic():
    """The full co-verification check: RTL records == reference records."""
    sim, clk, dut, sender, records = make_bench()
    reference = AccountingUnit(drop_unknown=True)
    connections = [(1, 100, 2, 0, 5), (1, 200, 1, 1, 0), (2, 50, 3, 2, 7)]
    for vpi, vci, upc, upc1, fixed in connections:
        dut.register(vpi, vci, units_per_cell=upc,
                     units_per_cell_clp1=upc1, fixed_units=fixed)
        reference.register(vpi, vci, Tariff(units_per_cell=upc,
                                            units_per_cell_clp1=upc1,
                                            fixed_units=fixed))
    traffic = [(1, 100, 0), (1, 200, 1), (1, 100, 1), (2, 50, 0),
               (1, 100, 0), (2, 50, 1), (1, 200, 0), (9, 9, 0)]
    for vpi, vci, clp in traffic:
        sender.send(AtmCell.with_payload(vpi, vci, [], clp=clp).to_octets())
        reference.cell_arrival(vpi, vci, clp=clp)
    sim.run(until=10 * 60 * len(traffic))
    pulse_tariff(sim, dut, clocks_after=40)
    expected = sorted(
        (r.vpi, r.vci, r.interval, r.cells_clp0, r.cells_clp1,
         r.charge_units) for r in reference.close_interval())
    assert sorted(decode_records(records)) == expected


@pytest.mark.parametrize("bug,expect_divergence", [
    (None, False),
    ("swap_clp", True),
    ("charge_off_by_one", True),
])
def test_injected_bugs_diverge_from_reference(bug, expect_divergence):
    sim, clk, dut, sender, records = make_bench(bug=bug)
    reference = AccountingUnit(drop_unknown=True)
    dut.register(1, 1, units_per_cell=2, units_per_cell_clp1=1)
    reference.register(1, 1, Tariff(units_per_cell=2,
                                    units_per_cell_clp1=1))
    for clp in (0, 1, 1, 0):
        sender.send(AtmCell.with_payload(1, 1, [], clp=clp).to_octets())
        reference.cell_arrival(1, 1, clp=clp)
    sim.run(until=10 * 300)
    pulse_tariff(sim, dut, clocks_after=20)
    expected = [(r.vpi, r.vci, r.interval, r.cells_clp0, r.cells_clp1,
                 r.charge_units) for r in reference.close_interval()]
    got = decode_records(records)
    assert (got != expected) == expect_divergence


def test_lost_tick_bug_detected_by_interval_index():
    sim, clk, dut, sender, records = make_bench(bug="lost_tick")
    dut.register(1, 1)
    pulse_tariff(sim, dut, clocks_after=20)   # processed
    pulse_tariff(sim, dut, clocks_after=20)   # swallowed by the bug
    recs = decode_records(records)
    assert len(recs) == 1  # second interval never closed


def test_table_full_rejected():
    sim, clk, dut, sender, records = make_bench(table_size=1)
    dut.register(1, 1)
    with pytest.raises(ValueError):
        dut.register(1, 2)


def test_duplicate_connection_rejected():
    sim, clk, dut, sender, records = make_bench()
    dut.register(1, 1)
    with pytest.raises(ValueError):
        dut.register(1, 1)


def test_unknown_bug_name_rejected():
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    with pytest.raises(ValueError):
        AccountingUnitRtl(sim, "a", clk, bug="gremlin")


def test_record_backlog_drains_one_word_per_clock():
    sim, clk, dut, sender, records = make_bench()
    for vci in range(4):
        dut.register(1, vci)
    pulse_tariff(sim, dut)
    backlog = dut.output_backlog_words
    assert backlog > 0
    sim.run(until=sim.now + 10 * (backlog + 2))
    assert dut.output_backlog_words == 0
    assert len(records) == 4 * RECORD_WORDS
