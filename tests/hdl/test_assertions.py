"""Tests for the assertion and coverage library."""

import pytest

from repro.hdl import (AssertionEngine, HdlAssertionError, Simulator,
                       ToggleCoverage)


def make_bench():
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    sim.add_clock(clk, period=10)
    return sim, clk


class TestAlwaysNever:
    def test_always_holds(self):
        sim, clk = make_bench()
        data = sim.signal("d", width=4, init=3)
        engine = AssertionEngine(sim, clk)
        engine.assert_always("d-nonzero", lambda: data.as_int() > 0)
        sim.run(until=100)
        assert engine.passed
        assert engine.checks_evaluated == 10

    def test_always_violation_recorded_with_time(self):
        sim, clk = make_bench()
        data = sim.signal("d", width=4, init=3)
        engine = AssertionEngine(sim, clk)
        engine.assert_always("d-nonzero", lambda: data.as_int() > 0,
                             "d went to zero")
        data.drive(0, delay=42)
        sim.run(until=100)
        assert not engine.passed
        assert engine.failures[0].name == "d-nonzero"
        assert engine.failures[0].time == 45  # first edge after t=42

    def test_never(self):
        sim, clk = make_bench()
        err = sim.signal("err", init="0")
        engine = AssertionEngine(sim, clk)
        engine.assert_never("no-err", lambda: err.value == "1")
        err.drive("1", delay=50)
        sim.run(until=100)
        assert len(engine.failures) >= 1

    def test_strict_mode_raises_immediately(self):
        sim, clk = make_bench()
        engine = AssertionEngine(sim, clk, strict=True)
        engine.assert_always("fail", lambda: False)
        with pytest.raises(HdlAssertionError):
            sim.run(until=20)

    def test_check_raises_at_end(self):
        sim, clk = make_bench()
        engine = AssertionEngine(sim, clk)
        engine.assert_always("fail", lambda: False)
        sim.run(until=20)
        with pytest.raises(HdlAssertionError):
            engine.check()


class TestToggleCoverage:
    def test_full_toggle_coverage(self):
        sim, clk = make_bench()
        data = sim.signal("d", width=2, init=0)
        coverage = ToggleCoverage(sim, [data])
        for t, value in ((10, 3), (20, 0)):
            data.drive(value, delay=t)
        sim.run(until=50)
        assert coverage.coverage() == 1.0
        assert coverage.uncovered() == []

    def test_partial_coverage_reported(self):
        sim, clk = make_bench()
        data = sim.signal("d", width=2, init=0)
        coverage = ToggleCoverage(sim, [data])
        data.drive(2, delay=10)   # bit 0 of the vector (MSB) rises only
        sim.run(until=50)
        assert coverage.coverage() == 0.0
        assert coverage.covered_bits == 0
        assert len(coverage.uncovered()) == 2

    def test_scalar_signal_tracked(self):
        sim, clk = make_bench()
        s = sim.signal("s", init="0")
        coverage = ToggleCoverage(sim, [s])
        s.drive("1", delay=10)
        s.drive("0", delay=20)
        sim.run(until=50)
        assert coverage.coverage() == 1.0

    def test_clock_coverage_free(self):
        """The clock itself reaches full toggle coverage trivially."""
        sim, clk = make_bench()
        coverage = ToggleCoverage(sim, [clk])
        sim.run(until=30)
        assert coverage.coverage() == 1.0
