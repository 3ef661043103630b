"""Unit tests for the HDL kernel: delta cycles, processes, clocks."""

import pytest

from repro.hdl import (CombinationalLoopError, DriveError, FallingEdge,
                       RisingEdge, SimulationError, Simulator)


class TestSignals:
    def test_initial_value_default_u(self):
        sim = Simulator()
        assert sim.signal("s").value == "U"
        assert sim.signal("v", width=4).value == ("U",) * 4

    def test_drive_takes_effect_next_delta(self):
        sim = Simulator()
        s = sim.signal("s", init="0")
        s.drive("1")
        assert s.value == "0"  # not yet applied
        sim.run(until=0)
        assert s.value == "1"

    def test_drive_with_delay(self):
        sim = Simulator()
        s = sim.signal("s", init="0")
        s.drive("1", delay=5)
        sim.run(until=4)
        assert s.value == "0"
        sim.run(until=5)
        assert s.value == "1"

    def test_vector_drive_int(self):
        sim = Simulator()
        v = sim.signal("v", width=8)
        v.drive(0xA5)
        sim.run(until=0)
        assert v.as_int() == 0xA5

    def test_scalar_int_drive(self):
        sim = Simulator()
        s = sim.signal("s")
        s.drive(1)
        sim.run(until=0)
        assert s.as_int() == 1

    def test_bad_drive_values(self):
        sim = Simulator()
        s = sim.signal("s")
        v = sim.signal("v", width=4)
        with pytest.raises(DriveError):
            s.drive("Q")
        with pytest.raises(DriveError):
            s.drive(2)
        with pytest.raises(DriveError):
            v.drive(16)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        s = sim.signal("s")
        with pytest.raises(SimulationError):
            s.drive("1", delay=-1)

    def test_as_int_metavalue_raises(self):
        sim = Simulator()
        s = sim.signal("s")
        from repro.hdl import LogicError
        with pytest.raises(LogicError):
            s.as_int()

    def test_change_count_and_last_event(self):
        sim = Simulator()
        s = sim.signal("s", init="0")
        s.drive("1", delay=3)
        s.drive("0", delay=7)
        sim.run(until=10)
        assert s.change_count == 2
        assert s.last_event_time == 7


class TestResolution:
    def test_two_process_drivers_resolve(self):
        sim = Simulator()
        bus = sim.signal("bus", init="Z")

        def driver_a(s):
            bus.drive("1")

        def driver_b(s):
            bus.drive("Z")

        sim.add_process("a", driver_a)
        sim.add_process("b", driver_b)
        sim.run(until=0)
        assert bus.value == "1"

    def test_contention_is_x(self):
        sim = Simulator()
        bus = sim.signal("bus")
        sim.add_process("a", lambda s: bus.drive("1"))
        sim.add_process("b", lambda s: bus.drive("0"))
        sim.run(until=0)
        assert bus.value == "X"

    def test_release_returns_bus_to_other_driver(self):
        sim = Simulator()
        bus = sim.signal("bus")
        release_now = sim.signal("rel", init="0")

        def driver_a(s):
            if release_now.value == "1":
                bus.release()
            else:
                bus.drive("0")

        sim.add_process("a", driver_a, sensitivity=[release_now])
        sim.add_process("b", lambda s: bus.drive("Z"))
        sim.run(until=0)
        assert bus.value == "0"
        release_now.drive("1")
        sim.run(until=1)
        assert bus.value == "Z"

    def test_vector_bitwise_resolution(self):
        sim = Simulator()
        bus = sim.signal("bus", width=2)
        sim.add_process("a", lambda s: bus.drive("1Z"))
        sim.add_process("b", lambda s: bus.drive("Z0"))
        sim.run(until=0)
        assert bus.value == ("1", "0")


class TestDeltaCycles:
    def test_chained_zero_delay_updates_same_time(self):
        sim = Simulator()
        a = sim.signal("a", init="0")
        b = sim.signal("b", init="0")
        c = sim.signal("c", init="0")
        sim.add_process("a2b", lambda s: b.drive(a.value), sensitivity=[a])
        sim.add_process("b2c", lambda s: c.drive(b.value), sensitivity=[b])
        sim.initialize()
        a.drive("1")
        sim.run(until=0)
        assert (a.value, b.value, c.value) == ("1", "1", "1")
        assert sim.now == 0

    def test_no_event_when_value_unchanged(self):
        sim = Simulator()
        s = sim.signal("s", init="0")
        runs = []
        sim.add_process("watch", lambda sim_: runs.append(sim_.now),
                        sensitivity=[s])
        sim.initialize()
        baseline = len(runs)
        s.drive("0")  # same value: no event
        sim.run(until=1)
        assert len(runs) == baseline

    def test_combinational_loop_detected(self):
        sim = Simulator()
        a = sim.signal("a", init="0")

        def inverter(s):
            a.drive("1" if a.value == "0" else "0")

        sim.add_process("inv", inverter, sensitivity=[a])
        with pytest.raises(CombinationalLoopError):
            sim.run(until=0)

    def test_event_flag_visible_during_delta_only(self):
        sim = Simulator()
        s = sim.signal("s", init="0")
        flags = []
        sim.add_process("watch", lambda sim_: flags.append(s.event),
                        sensitivity=[s])
        sim.initialize()
        s.drive("1")
        sim.run(until=2)
        assert flags[-1] is True
        assert s.event is False  # after the run, stamp has moved on


class TestClocksAndGenerators:
    def test_clock_toggles(self):
        sim = Simulator()
        clk = sim.signal("clk", init="0")
        sim.add_clock(clk, period=10)
        transitions = []
        sim.add_process("watch",
                        lambda s: transitions.append((s.now, clk.value)),
                        sensitivity=[clk])
        sim.run(until=30)
        assert transitions == [(0, "0"), (5, "1"), (10, "0"), (15, "1"),
                               (20, "0"), (25, "1"), (30, "0")]

    def test_clock_start_high_and_duty(self):
        sim = Simulator()
        clk = sim.signal("clk")
        sim.add_clock(clk, period=10, start_high=True, duty_ticks=3)
        sim.run(until=0)
        assert clk.value == "1"
        sim.run(until=3)
        assert clk.value == "0"
        sim.run(until=10)
        assert clk.value == "1"

    def test_invalid_clock_config(self):
        sim = Simulator()
        clk = sim.signal("clk")
        with pytest.raises(SimulationError):
            sim.add_clock(clk, period=1)
        with pytest.raises(SimulationError):
            sim.add_clock(clk, period=10, duty_ticks=10)

    def test_generator_timed_waits(self):
        sim = Simulator()
        s = sim.signal("s", init="0")

        def stim():
            s.drive("1")
            yield 10
            s.drive("0")
            yield 5
            s.drive("1")

        sim.add_generator("stim", stim())
        sim.run(until=9)
        assert s.value == "1"
        sim.run(until=12)
        assert s.value == "0"
        sim.run(until=15)
        assert s.value == "1"

    def test_generator_rising_edge_wait(self):
        sim = Simulator()
        clk = sim.signal("clk", init="0")
        sim.add_clock(clk, period=10)
        seen = []

        def waiter():
            for _ in range(3):
                yield RisingEdge(clk)
                seen.append(sim.now)

        sim.add_generator("w", waiter())
        sim.run(until=100)
        assert seen == [5, 15, 25]

    def test_generator_falling_edge_wait(self):
        sim = Simulator()
        clk = sim.signal("clk", init="0")
        sim.add_clock(clk, period=10)
        seen = []

        def waiter():
            yield FallingEdge(clk)
            seen.append(sim.now)

        sim.add_generator("w", waiter())
        sim.run(until=100)
        assert seen == [10]

    def test_generator_wait_on_any_of_two_signals(self):
        sim = Simulator()
        a = sim.signal("a", init="0")
        b = sim.signal("b", init="0")
        wakes = []

        def waiter():
            while True:
                yield (a, b)
                wakes.append(sim.now)

        sim.add_generator("w", waiter())
        a.drive("1", delay=3)
        b.drive("1", delay=7)
        sim.run(until=10)
        assert wakes == [3, 7]

    def test_finished_generator_stops(self):
        sim = Simulator()
        s = sim.signal("s", init="0")

        def once():
            s.drive("1")
            yield 1
            s.drive("0")

        proc = sim.add_generator("once", once())
        sim.run(until=10)
        assert proc.finished
        assert s.value == "0"

    def test_negative_yield_rejected(self):
        sim = Simulator()

        def bad():
            yield -5

        sim.add_generator("bad", bad())
        from repro.hdl import ProcessError
        with pytest.raises(ProcessError):
            sim.run(until=1)

    def test_bad_yield_type_rejected(self):
        sim = Simulator()

        def bad():
            yield "soon"

        sim.add_generator("bad", bad())
        from repro.hdl import ProcessError
        with pytest.raises(ProcessError):
            sim.run(until=1)


class TestKernelAccounting:
    def test_event_and_delta_counters(self):
        sim = Simulator()
        clk = sim.signal("clk", init="0")
        sim.add_clock(clk, period=10)
        sim.run(until=100)
        # One transition per half period at t=5,10,...,100; the initial
        # drive of '0' onto an already-'0' signal is not an event.
        assert sim.signal_events == 20
        assert sim.delta_cycles >= 21
        assert sim.process_runs >= 21

    def test_next_event_time(self):
        sim = Simulator()
        s = sim.signal("s", init="0")
        sim.initialize()
        assert sim.next_event_time() is None
        s.drive("1", delay=7)
        assert sim.next_event_time() == 7

    def test_run_until_advances_time_without_events(self):
        sim = Simulator()
        sim.run(until=42)
        assert sim.now == 42
