"""Unit tests for the VCD writer."""

from repro.hdl import Simulator
from repro.reference import VcdWriter


class TestVcd:
    def test_vcd_file_structure(self, tmp_path):
        sim = Simulator()
        clk = sim.signal("clk", init="0")
        data = sim.signal("data", width=4)
        path = tmp_path / "wave.vcd"
        with VcdWriter(sim, path, [clk, data]) as vcd:
            sim.add_clock(clk, period=10)
            data.drive(5, delay=7)
            sim.run(until=20)
        text = path.read_text()
        assert "$timescale 1ns $end" in text
        assert "$var wire 1" in text
        assert "$var wire 4" in text
        assert "#5" in text and "#7" in text
        assert "b0101" in text
        assert vcd.changes_written >= 3

    def test_initial_values_dumped_as_x_for_u(self, tmp_path):
        sim = Simulator()
        s = sim.signal("s")
        path = tmp_path / "init.vcd"
        with VcdWriter(sim, path, [s]):
            sim.run(until=1)
        assert "x" in path.read_text().split("$dumpvars")[1]

    def test_unselected_signals_not_dumped(self, tmp_path):
        sim = Simulator()
        a = sim.signal("a", init="0")
        b = sim.signal("b", init="0")
        path = tmp_path / "sel.vcd"
        with VcdWriter(sim, path, [a]):
            b.drive("1", delay=2)
            sim.run(until=5)
        assert "b" not in path.read_text().split("$enddefinitions")[0].split(
            "$var")[1]

    def test_close_detaches_hook(self, tmp_path):
        sim = Simulator()
        s = sim.signal("s", init="0")
        vcd = VcdWriter(sim, tmp_path / "d.vcd", [s]).open()
        vcd.close()
        assert vcd._on_change not in sim.signal_hooks
        s.drive("1")
        sim.run(until=1)  # must not blow up writing to a closed file
