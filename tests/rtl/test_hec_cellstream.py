"""Tests for HEC circuits and the octet-serial cell stream.

The HEC tests co-verify the RTL circuit against the algorithmic
reference in :mod:`repro.atm.hec` — the paper's methodology in
miniature.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.atm import AtmCell, hec_octet
from repro.hdl import Simulator
from repro.rtl import (CellReceiver, CellSender, CellStreamPort,
                       HecChecker, HecGenerator, crc8_step)


def make_clocked_sim(period=10):
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    sim.add_clock(clk, period=period)
    return sim, clk


def feed_octets(sim, dut, octets, sof_first=True):
    """Clock one octet per cycle into a HEC circuit's d/d_valid/sof."""
    for index, octet in enumerate(octets):
        dut.d.drive(octet)
        dut.d_valid.drive("1")
        dut.sof.drive("1" if (sof_first and index == 0) else "0")
        sim.run_for(10)
    dut.d_valid.drive("0")
    sim.run_for(10)


class TestCrc8Step:
    @given(st.lists(st.integers(0, 255), min_size=4, max_size=4))
    def test_property_matches_reference(self, header):
        crc = 0
        for octet in header:
            crc = crc8_step(crc, octet)
        assert crc ^ 0x55 == hec_octet(header)


class TestHecGenerator:
    def test_generates_reference_hec(self):
        sim, clk = make_clocked_sim()
        gen = HecGenerator(sim, "hec", clk)
        sim.run(until=2)
        header = [0x12, 0x34, 0x56, 0x78]
        feed_octets(sim, gen, header)
        assert gen.hec.as_int() == hec_octet(header)

    def test_valid_pulse_once(self):
        sim, clk = make_clocked_sim()
        gen = HecGenerator(sim, "hec", clk)
        pulses = []
        sim.add_process("watch",
                        lambda s: pulses.append(s.now)
                        if gen.hec_valid.rising() else None,
                        sensitivity=[gen.hec_valid])
        sim.run(until=2)
        feed_octets(sim, gen, [1, 2, 3, 4])
        sim.run_for(50)
        assert len(pulses) == 1

    def test_sof_restarts_computation(self):
        sim, clk = make_clocked_sim()
        gen = HecGenerator(sim, "hec", clk)
        sim.run(until=2)
        feed_octets(sim, gen, [0xFF, 0xFF])   # partial header, abandoned
        feed_octets(sim, gen, [1, 2, 3, 4])   # fresh sof
        assert gen.hec.as_int() == hec_octet([1, 2, 3, 4])

    def test_extra_octets_ignored(self):
        sim, clk = make_clocked_sim()
        gen = HecGenerator(sim, "hec", clk)
        sim.run(until=2)
        feed_octets(sim, gen, [1, 2, 3, 4, 99, 98])
        assert gen.hec.as_int() == hec_octet([1, 2, 3, 4])


class TestHecChecker:
    def test_good_header_pulses_ok(self):
        sim, clk = make_clocked_sim()
        chk = HecChecker(sim, "chk", clk)
        sim.run(until=2)
        header = [0xA, 0xB, 0xC, 0xD]
        feed_octets(sim, chk, header + [hec_octet(header)])
        assert chk.headers_checked == 1
        assert chk.errors_seen == 0

    def test_bad_header_pulses_err(self):
        sim, clk = make_clocked_sim()
        chk = HecChecker(sim, "chk", clk)
        sim.run(until=2)
        header = [0xA, 0xB, 0xC, 0xD]
        feed_octets(sim, chk, header + [hec_octet(header) ^ 0x01])
        assert chk.errors_seen == 1

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=4, max_size=4),
           st.integers(0, 39))
    def test_property_single_bit_errors_detected(self, header, bitpos):
        full = header + [hec_octet(header)]
        full[bitpos // 8] ^= 1 << (bitpos % 8)
        sim, clk = make_clocked_sim()
        chk = HecChecker(sim, "chk", clk)
        sim.run(until=2)
        feed_octets(sim, chk, full)
        assert chk.errors_seen == 1


class TestCellStream:
    def test_cell_round_trip(self):
        sim, clk = make_clocked_sim()
        sender = CellSender(sim, "tx", clk)
        receiver = CellReceiver(sim, "rx", clk, sender.port)
        cell = AtmCell.with_payload(5, 77, list(range(48)))
        sender.send(cell.to_octets())
        sim.run(until=10 * 60)
        assert len(receiver.cells) == 1
        assert AtmCell.from_octets(receiver.cells[0]) == cell

    def test_back_to_back_cells(self):
        sim, clk = make_clocked_sim()
        sender = CellSender(sim, "tx", clk)
        receiver = CellReceiver(sim, "rx", clk, sender.port)
        cells = [AtmCell.with_payload(1, i + 1, [i]) for i in range(3)]
        for cell in cells:
            sender.send(cell.to_octets())
        sim.run(until=10 * 200)
        assert [AtmCell.from_octets(c).vci for c in receiver.cells] \
            == [1, 2, 3]
        assert sender.backlog == 0
        assert receiver.framing_errors == 0

    def test_gap_octets_insert_idle_clocks(self):
        sim, clk = make_clocked_sim()
        sender = CellSender(sim, "tx", clk, gap_octets=3)
        receiver = CellReceiver(sim, "rx", clk, sender.port)
        for i in range(2):
            sender.send(AtmCell.with_payload(1, i + 1, []).to_octets())
        sim.run(until=10 * 130)
        assert len(receiver.cells) == 2
        # second cell starts >= 53 + 3 clocks after the first
        # (verified indirectly: both arrive intact despite the gap)
        assert receiver.framing_errors == 0

    def test_sender_rejects_wrong_length(self):
        sim, clk = make_clocked_sim()
        sender = CellSender(sim, "tx", clk)
        with pytest.raises(ValueError):
            sender.send([0] * 52)
        with pytest.raises(ValueError):
            sender.send([0] * 54)

    def test_sender_needs_a_registered_clock(self):
        """Without the clock geometry the sender cannot place cell
        waveforms on edges; it must say so at construction, naming the
        signal and both ways to register a clock."""
        sim = Simulator()
        clk = sim.signal("sysclk", init="0")
        with pytest.raises(ValueError) as excinfo:
            CellSender(sim, "tx", clk)
        message = str(excinfo.value)
        assert "'sysclk'" in message
        assert "sim.add_clock" in message and "CycleEngine" in message
        sim.add_clock(clk, period=10)
        CellSender(sim, "tx", clk)                # now it builds

    def test_sends_before_initialize_schedule_during_it(self):
        """The set-up/run split: cells sent while the bench is built
        only queue; their waveforms are scheduled inside
        ``sim.initialize()`` (part of the first ``run``), not in
        ``send()``."""
        sim, clk = make_clocked_sim()
        sender = CellSender(sim, "tx", clk)
        cells = [AtmCell.with_payload(1, i + 1, [i]).to_octets()
                 for i in range(5)]
        for octets in cells:
            sender.send(octets)
        assert sim.waveforms_scheduled == 0
        assert sender.backlog == 5
        sim.initialize()
        assert sim.waveforms_scheduled == 5
        assert sender.backlog == 5
        sender.send(cells[0])                     # running: immediate
        assert sim.waveforms_scheduled == 6

    def test_idle_gap_costs_no_process_runs(self):
        """Edge gating: an idle link must not burn process dispatches.

        The receiver parks on the next rising edge of ``valid`` and the
        sender has no process after initialisation, so a long idle
        stretch after the last cell adds zero process runs (the
        CycleEngine has no clock process of its own, making the floor
        exact)."""
        from repro.hdl import CycleEngine
        sim = Simulator()
        clk = sim.signal("clk", init="0")
        CycleEngine(sim, clk, period=10)
        sender = CellSender(sim, "tx", clk)
        receiver = CellReceiver(sim, "rx", clk, sender.port)
        sender.send(AtmCell.with_payload(1, 1, []).to_octets())
        sim.run(until=10 * 60)       # cell fully delivered
        assert len(receiver.cells) == 1
        busy_runs = sim.process_runs
        sim.run(until=10 * 1060)     # 1000 further idle clocks
        assert sim.process_runs == busy_runs

    def test_idle_gap_event_clock_only_clock_runs(self):
        """Same regression under the event-driven clock: the idle
        stretch adds only the clock generator's own resumptions — the
        sender/receiver contribute none."""
        # baseline: a bare clock over the same window
        ref_sim, _ = make_clocked_sim()
        ref_sim.run(until=10 * 60)
        ref_busy = ref_sim.process_runs
        ref_sim.run(until=10 * 1060)
        clock_only = ref_sim.process_runs - ref_busy

        sim, clk = make_clocked_sim()
        sender = CellSender(sim, "tx", clk)
        receiver = CellReceiver(sim, "rx", clk, sender.port)
        sender.send(AtmCell.with_payload(1, 1, []).to_octets())
        sim.run(until=10 * 60)
        assert len(receiver.cells) == 1
        busy_runs = sim.process_runs
        sim.run(until=10 * 1060)
        assert sim.process_runs - busy_runs == clock_only

    def test_cells_sent_counter_and_idle_between(self):
        sim, clk = make_clocked_sim()
        sender = CellSender(sim, "tx", clk)
        receiver = CellReceiver(sim, "rx", clk, sender.port)
        sender.send(AtmCell.with_payload(1, 1, []).to_octets())
        sim.run(until=10 * 80)
        assert sender.cells_sent == 1
        assert sender.port.valid.value == "0"  # idle after the cell

    def test_on_cell_callback(self):
        sim, clk = make_clocked_sim()
        sender = CellSender(sim, "tx", clk)
        seen = []
        CellReceiver(sim, "rx", clk, sender.port, on_cell=seen.append)
        sender.send(AtmCell.with_payload(2, 9, [7]).to_octets())
        sim.run(until=10 * 60)
        assert len(seen) == 1
        assert AtmCell.from_octets(seen[0]).vci == 9

    def test_external_port_sharing(self):
        sim, clk = make_clocked_sim()
        port = CellStreamPort(sim, "shared")
        sender = CellSender(sim, "tx", clk, port=port)
        receiver = CellReceiver(sim, "rx", clk, port)
        sender.send(AtmCell.with_payload(1, 5, []).to_octets())
        sim.run(until=10 * 60)
        assert len(receiver.cells) == 1
        assert len(port.signals()) == 3
