"""Tests for VCD parsing and waveform comparison."""

import pytest

from repro.hdl import Simulator
from repro.reference import (VcdData, VcdFormatError, VcdWriter,
                             compare_waveforms)


def dump_run(tmp_path, name, data_value=5, until=40):
    """Dump a small run: a clock plus a 4-bit data signal."""
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    data = sim.signal("data", width=4, init=0)
    path = tmp_path / f"{name}.vcd"
    with VcdWriter(sim, path, [clk, data]):
        sim.add_clock(clk, period=10)
        data.drive(data_value, delay=17)
        sim.run(until=until)
    return path


class TestVcdParse:
    def test_round_trip_structure(self, tmp_path):
        path = dump_run(tmp_path, "a")
        wave = VcdData.parse(path)
        assert wave.timescale == "1ns"
        assert wave.signals() == ["clk", "data"]
        assert wave.widths["data"] == 4

    def test_values_reconstructed(self, tmp_path):
        path = dump_run(tmp_path, "a", data_value=5)
        wave = VcdData.parse(path)
        assert wave.value_at("data", 0) == "0000"
        assert wave.value_at("data", 16) == "0000"
        assert wave.value_at("data", 17) == "0101"
        assert wave.value_at("clk", 5) == "1"
        assert wave.value_at("clk", 10) == "0"

    def test_edges_and_last_time(self, tmp_path):
        path = dump_run(tmp_path, "a", until=40)
        wave = VcdData.parse(path)
        # clock edges at 5,10,15,20,25,30,35,40 = 8
        assert wave.edges("clk") == 8
        assert wave.last_time() == 40

    def test_unknown_signal_rejected(self, tmp_path):
        wave = VcdData.parse(dump_run(tmp_path, "a"))
        with pytest.raises(KeyError):
            wave.value_at("ghost", 0)

    def test_malformed_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.vcd"
        bad.write_text("$var wire 1 ! clk $end\n#5\n1!\n")
        with pytest.raises(VcdFormatError):
            VcdData.parse(bad)  # no $enddefinitions

    def test_initial_metavalue_parsed(self, tmp_path):
        sim = Simulator()
        s = sim.signal("s")  # 'U' -> dumped as x
        path = tmp_path / "u.vcd"
        with VcdWriter(sim, path, [s]):
            sim.run(until=5)
        wave = VcdData.parse(path)
        assert wave.value_at("s", 0) == "x"


class TestCompareWaveforms:
    def test_identical_runs_are_equivalent(self, tmp_path):
        a = VcdData.parse(dump_run(tmp_path, "a"))
        b = VcdData.parse(dump_run(tmp_path, "b"))
        assert compare_waveforms(a, b) == []

    def test_value_divergence_detected(self, tmp_path):
        a = VcdData.parse(dump_run(tmp_path, "a", data_value=5))
        b = VcdData.parse(dump_run(tmp_path, "b", data_value=9))
        diffs = compare_waveforms(a, b)
        assert diffs
        first = diffs[0]
        assert first.signal == "data"
        assert first.time == 17
        assert first.value_a == "0101"
        assert first.value_b == "1001"

    def test_selected_signals_only(self, tmp_path):
        a = VcdData.parse(dump_run(tmp_path, "a", data_value=5))
        b = VcdData.parse(dump_run(tmp_path, "b", data_value=9))
        assert compare_waveforms(a, b, signals=["clk"]) == []

    def test_missing_signal_reported(self, tmp_path):
        a = VcdData.parse(dump_run(tmp_path, "a"))
        sim = Simulator()
        clk = sim.signal("clk", init="0")
        path = tmp_path / "clk_only.vcd"
        with VcdWriter(sim, path, [clk]):
            sim.add_clock(clk, period=10)
            sim.run(until=40)
        b = VcdData.parse(path)
        diffs = compare_waveforms(a, b)
        assert any(d.signal == "data" and d.value_b is None
                   for d in diffs)

    def test_golden_run_regression_use_case(self, tmp_path):
        """The regression pattern: same design, longer run — the common
        prefix matches, so only post-prefix changes could differ."""
        a = VcdData.parse(dump_run(tmp_path, "short", until=40))
        b = VcdData.parse(dump_run(tmp_path, "long", until=80))
        diffs = compare_waveforms(a, b)
        assert all(d.time > 40 for d in diffs)
