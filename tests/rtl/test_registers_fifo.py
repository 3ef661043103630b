"""Unit tests for registers and counters."""

import pytest

from repro.hdl import Simulator
from repro.rtl import Counter, Register


def make_clocked_sim(period=10):
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    sim.add_clock(clk, period=period)
    return sim, clk


class TestRegister:
    def test_q_follows_d_one_edge_later(self):
        sim, clk = make_clocked_sim()
        d = sim.signal("d", width=8, init=0)
        reg = Register(sim, "r", clk, d)
        d.drive(0x42, delay=1)
        sim.run(until=4)       # before the first rising edge (t=5)
        assert reg.q.value == ("U",) * 8
        sim.run(until=6)
        assert reg.q.as_int() == 0x42

    def test_enable_holds_value(self):
        sim, clk = make_clocked_sim()
        d = sim.signal("d", width=4, init=1)
        en = sim.signal("en", init="1")
        reg = Register(sim, "r", clk, d, enable=en)
        sim.run(until=6)
        assert reg.q.as_int() == 1
        en.drive("0")
        d.drive(9)
        sim.run(until=26)
        assert reg.q.as_int() == 1  # enable low: value held

    def test_sync_reset(self):
        sim, clk = make_clocked_sim()
        d = sim.signal("d", width=4, init=5)
        rst = sim.signal("rst", init="0")
        reg = Register(sim, "r", clk, d, reset=rst, reset_value=0)
        sim.run(until=6)
        assert reg.q.as_int() == 5
        rst.drive("1")
        sim.run(until=16)
        assert reg.q.as_int() == 0

    def test_scalar_register(self):
        sim, clk = make_clocked_sim()
        d = sim.signal("d", init="1")
        reg = Register(sim, "r", clk, d)
        sim.run(until=6)
        assert reg.q.value == "1"


class TestCounter:
    def test_counts_rising_edges(self):
        sim, clk = make_clocked_sim()
        counter = Counter(sim, "c", clk, width=8)
        sim.run(until=55)  # edges at 5,15,25,35,45,55
        assert counter.q.as_int() == 6

    def test_wraps_at_width(self):
        sim, clk = make_clocked_sim()
        counter = Counter(sim, "c", clk, width=2)
        sim.run(until=55)  # 6 edges mod 4 = 2
        assert counter.q.as_int() == 2

    def test_enable(self):
        sim, clk = make_clocked_sim()
        en = sim.signal("en", init="0")
        counter = Counter(sim, "c", clk, width=8, enable=en)
        sim.run(until=25)
        assert counter.q.as_int() == 0
        en.drive("1")
        sim.run(until=55)
        assert counter.q.as_int() == 3

    def test_reset_dominates_enable(self):
        sim, clk = make_clocked_sim()
        en = sim.signal("en", init="1")
        rst = sim.signal("rst", init="0")
        counter = Counter(sim, "c", clk, width=8, enable=en, reset=rst)
        sim.run(until=25)
        rst.drive("1")
        sim.run(until=35)
        assert counter.q.as_int() == 0

    def test_invalid_width(self):
        sim, clk = make_clocked_sim()
        with pytest.raises(ValueError):
            Counter(sim, "c", clk, width=0)

