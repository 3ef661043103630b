"""Differential tests of whole-cycle clocking (``CycleEngine._run_quiet``).

The engine runs *quiet* stretches of clock edges as compiled
evaluations plus arithmetic and every other edge through the general
``_apply_edge``.  The promise is that nobody can tell: a generated
schedule of ``run(until=)`` slices, waveforms (on and off the rising
edges, onto signals read only by the compiled kernel or by an event
process, with completion callbacks that add a signal hook, schedule a
timed event or park a waiter on the clock; two streams due on the same
rising edges; long busy runs with a batch and a commit on every edge),
timed events, edge waiters, a VCD hook attached mid-run and
falling-edge logic is replayed on the same compiled design under

* ``"cycle"`` — the engine as shipped,
* ``"general"`` — the engine kept out of the quiet path by a no-op
  signal hook, so every edge is a general one (exact oracle: same
  ordering rules, every counter must match), and
* ``"event"`` — the kernel's generator clock, ``Simulator.add_clock``
  (the clock generator costs one process run and one delta round per
  edge, which is subtracted; a heap event on an edge shares the edge's
  delta there, so that schedule keeps timed events off the edges).

Compared: the VCD written from the step the writer is attached at, the
log of every process woken on the way (time, kernel counters and the
value, ``previous``, ``change_count``, ``last_event_time`` and
``event`` of the clock, the stimulus targets and the outputs, as seen
from inside the process), the same at the end, and the engine's own
edge and cycle counts.  Against the general path the delta stamp and
every signal's event stamp must match too, at every logged step.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdl import (CycleEngine, FallingEdge, RisingEdge, Simulator,
                       VcdWriter)
from repro.rtl import Counter, Register

COUNTERS = ("events_executed", "signal_events", "delta_cycles",
            "process_runs", "compiled_evals", "compiled_commit_writes")


class Bench:
    """One clocked design plus the observers that log what they see."""

    def __init__(self, clocking, period, duty, compiled, falling_logic):
        self.sim = sim = Simulator()
        self.period = period
        self.low = period - duty
        self.clk = clk = sim.signal("clk", init="0")
        self.clock_proc = None
        self.engine = None
        if clocking == "event":
            self.clock_proc = sim.add_clock(clk, period, duty_ticks=duty)
        else:
            self.engine = CycleEngine(sim, clk, period, duty_ticks=duty)
            if clocking == "general":
                sim.signal_hooks.append(lambda _signal: None)
        self.d = sim.signal("d", width=4, init=0)
        self.en = sim.signal("en", init="0")
        # read by an event process: a batch onto it wakes someone
        self.obs = sim.signal("obs", width=4, init=0)
        sim.add_process("on_obs", lambda _s: self.note("obs"),
                        sensitivity=[self.obs])
        self.outputs = [self.d, self.en, self.obs]
        self.committed = (self.d,)
        if compiled:
            reg = Register(sim, "reg", clk, self.d)
            cnt = Counter(sim, "cnt", clk, width=3, enable=self.en)
            self.outputs += [reg.q, cnt.q]
            self.committed = (reg.q, cnt.q)
            if compiled != "unread":
                # woken by the commit: runs in the delta after it
                sim.add_process("on_q", lambda _s: self.note("q"),
                                sensitivity=[reg.q, cnt.q])
        if falling_logic:
            falls = sim.signal("falls", width=4, init=0)
            self.outputs.append(falls)

            def on_clk(_sim):
                if clk.falling():
                    self.note("fall")
                    falls.drive((falls.as_int() + 1) % 16)
            sim.add_process("on_fall", on_clk, sensitivity=[clk])
        self.log = []
        self.stamp_log = []
        self.vcd = None

    def counters(self):
        """Kernel counters with the generator clock's own share (one
        process run and one delta round per edge) taken out."""
        stats = self.sim.stats_snapshot()
        values = [stats[key] for key in COUNTERS]
        if self.clock_proc is not None:
            values[2] -= self.clock_proc.runs - 1
            values[3] -= self.clock_proc.runs
        return tuple(values)

    def signals(self):
        """Everything a reader can see of the clock, the stimulus
        targets and the outputs."""
        return tuple((s.value, s.previous, s.change_count,
                      s.last_event_time, s.event)
                     for s in [self.clk] + self.outputs)

    def stamps(self):
        """The delta stamp and every signal's event stamp: compared
        against the general edge path only (the generator clock spends
        one more delta round per edge)."""
        return (self.sim._delta_stamp,) + tuple(
            s._event_delta for s in [self.clk] + self.outputs)

    def note(self, tag):
        counters = self.counters()
        # process_runs is compared at the end only: the delta loop
        # counts a round's processes one by one, the engine's edge
        # dispatch all at once after the last one
        self.log.append((tag, self.sim.now, self.signals(),
                         counters[:3] + counters[4:]))
        self.stamp_log.append(self.stamps())

    def on_edge(self, time):
        return time > 0 and time % self.period in (0, self.low)

    # -- schedule actions --------------------------------------------------
    def drive_later(self, name, value, delay, keep_off_edges):
        while keep_off_edges and self.on_edge(self.sim.now + delay):
            delay += 1
        getattr(self, name).drive(value, delay=delay)

    def act(self, action, keep_off_edges):
        kind = action[0]
        sim = self.sim
        if kind == "wave":
            sim.schedule_waveform(
                [(offset, getattr(self, name), value)
                 for offset, name, value in action[1]])
        elif kind == "edges":
            # transitions on rising edges (shifted off them by *shift*)
            # and a completion callback on the last one
            _kind, items, shift, callback = action
            base = sim.next_rising_edge(self.clk) + shift - sim.now
            transitions = [(base + k * self.period, getattr(self, name),
                            value) for k, name, value in items]
            last = transitions[-1][0] if transitions else base
            sim.schedule_waveform(transitions, callbacks=[
                (last, lambda: self.on_batch(callback, keep_off_edges))])
        elif kind == "pair":
            # two streams due on the same rising edges (the second one
            # carries the completion callback)
            _kind, items, callback = action
            base = sim.next_rising_edge(self.clk) - sim.now
            sim.schedule_waveform([
                (base + k * self.period, getattr(self, name), value)
                for k, (name, value), _second in items])
            self.act(("edges", [(k, name, value) for k, _first,
                                (name, value) in items], 0, callback),
                     keep_off_edges)
        elif kind == "busy":
            # the bursty shape: a new d (and so a register commit) on
            # every rising edge of a long run, the counter enabled
            _kind, length, start, callback = action
            d = [(k, "d", (start + 3 * k) % 16) for k in range(length)]
            self.act(("edges", [(0, "en", "1")] + d, 0, callback),
                     keep_off_edges)
        elif kind == "timed":
            self.drive_later(*action[1:], keep_off_edges)
        elif kind == "chaser":
            # woken by a commit, it schedules a timed event and starts
            # waiting on the clock: the commit's delta ends the quiet
            _kind, edge, delay = action
            tag = f"chaser@{sim.now}"

            def chaser():
                yield self.committed
                self.note(tag)
                self.drive_later("en", "1", delay, keep_off_edges)
                yield edge(self.clk)
                self.note(tag)
            sim.add_generator(tag, chaser())
        elif kind == "waiter":
            _kind, edge, count, drives = action
            tag = f"{edge.__name__}@{sim.now}"

            def waiter():
                for index in range(count):
                    yield edge(self.clk)
                    self.note(tag)
                    if drives:
                        self.d.drive((index * 5 + drives) % 16)
            sim.add_generator(tag, waiter())

    def on_batch(self, callback, keep_off_edges):
        """A waveform completion callback: every kind but ``none`` ends
        the quiet."""
        sim = self.sim
        self.note(f"batch-{callback}")
        if callback == "hook":
            sim.signal_hooks.append(lambda signal: self.log.append(
                ("hook", sim.now, signal.name, signal.value)))
        elif callback == "timed":
            self.drive_later("d", 11, self.period + 1, keep_off_edges)
        elif callback == "waiter":
            self.act(("waiter", RisingEdge, 2, 1), keep_off_edges)

    def finish(self):
        if self.vcd is not None:
            self.vcd.close()
        return {
            "now": self.sim.now,
            "log": self.log,
            "counters": self.counters(),
            "signals": self.signals(),
            "stamps": (self.stamp_log, self.stamps()),
            "vcd": (self.vcd.path.read_text()
                    if self.vcd is not None else None),
        }


def replay(clocking, scenario, directory, keep_off_edges):
    period, duty, compiled, falling_logic, steps, vcd_at = scenario
    bench = Bench(clocking, period, duty, compiled, falling_logic)
    for index, (action, ticks) in enumerate(steps):
        if index == vcd_at:
            bench.vcd = VcdWriter(bench.sim, directory / f"{clocking}.vcd",
                                  [bench.clk] + bench.outputs).open()
        bench.act(action, keep_off_edges)
        bench.sim.run(until=bench.sim.now + ticks)
    result = bench.finish()
    if bench.engine is not None:
        engine = bench.engine.stats_snapshot()
        # the stretch/batch counts describe the clocking path itself
        result["engine"] = (engine["cycles_run"], engine["edges_applied"])
    return result


def assert_indistinguishable(scenario, directory):
    # against the general edge path: everything, timed events anywhere
    cycle = replay("cycle", scenario, directory, keep_off_edges=False)
    assert cycle == replay("general", scenario, directory,
                           keep_off_edges=False)
    # against the event-driven clock
    cycle = replay("cycle", scenario, directory, keep_off_edges=True)
    cycle.pop("engine")
    cycle.pop("stamps")
    event = replay("event", scenario, directory, keep_off_edges=True)
    event.pop("stamps")
    assert cycle == event


SIGNAL_VALUES = st.one_of(
    st.tuples(st.just("d"), st.integers(0, 15)),
    st.tuples(st.just("en"), st.sampled_from(["0", "1"])),
    st.tuples(st.just("obs"), st.integers(0, 15)))


@st.composite
def scenarios(draw):
    period = draw(st.sampled_from([4, 6, 10]))
    duty = draw(st.integers(1, period - 1))
    span = 3 * period
    transitions = st.lists(
        st.tuples(st.integers(0, span), SIGNAL_VALUES), max_size=5).map(
            lambda items: [(offset, name, value) for offset, (name, value)
                           in sorted(items, key=lambda item: item[0])])
    edges = st.tuples(
        st.just("edges"),
        st.lists(st.tuples(st.integers(0, 3), SIGNAL_VALUES),
                 max_size=4).map(
            lambda items: [(k, name, value) for k, (name, value)
                           in sorted(items, key=lambda i: i[0])]),
        # on the rising edges, or shifted off them in a third
        st.one_of(st.just(0), st.just(0), st.integers(1, period - 1)),
        st.sampled_from(["none", "hook", "timed", "waiter"]))
    callbacks = st.sampled_from(["none", "none", "hook", "timed", "waiter"])
    pair = st.tuples(
        st.just("pair"),
        st.lists(st.tuples(st.integers(0, 3), SIGNAL_VALUES, SIGNAL_VALUES),
                 min_size=1, max_size=4).map(
            lambda items: sorted(items, key=lambda i: i[0])),
        callbacks)
    busy = st.tuples(st.just("busy"), st.integers(4, 24), st.integers(0, 15),
                     callbacks)
    action = st.one_of(
        st.just(("none",)),
        st.tuples(st.just("wave"), transitions),
        edges, edges,      # batches inside a stretch: drawn twice as often
        pair, busy,
        st.tuples(st.just("timed"), SIGNAL_VALUES,
                  st.integers(1, span)).map(
                      lambda t: ("timed", t[1][0], t[1][1], t[2])),
        st.tuples(st.just("waiter"),
                  st.sampled_from([RisingEdge, FallingEdge]),
                  st.integers(1, 4), st.integers(0, 3)),
        st.tuples(st.just("chaser"),
                  st.sampled_from([RisingEdge, FallingEdge]),
                  st.integers(1, span)))
    steps = draw(st.lists(st.tuples(action, st.integers(0, span + 7)),
                          min_size=1, max_size=8))
    return (period, duty,
            # compiled design: its outputs read by an event process,
            # by no one (commits stay inside a stretch), or no design
            draw(st.sampled_from([True, True, "unread", "unread", False])),
            draw(st.sampled_from([False, False, True])),  # falling logic
            # the step that attaches the VCD writer (its hook ends every
            # stretch for good), or none in half the schedules
            steps, draw(st.one_of(st.just(len(steps)),
                                  st.integers(0, len(steps)))))


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_quiet_stretches_are_indistinguishable(scenario, tmp_path_factory):
    assert_indistinguishable(scenario, tmp_path_factory.getbasetemp())


WAVE_ON_RISE = ("wave", [(5, "d", 9), (5, "en", "1"), (25, "en", "0")])

REGRESSIONS = {
    # slices ending between a rising and a falling edge, and on edges
    "slices-inside-a-cycle": (10, 5, True, False, [
        (WAVE_ON_RISE, 7), (("none",), 0), (("none",), 3),
        (("none",), 5), (("none",), 26)], 5),
    # waveform transitions off the edges, uneven duty
    "off-edge-waveform": (10, 3, True, False, [
        (("wave", [(1, "en", "1"), (8, "d", 3), (9, "d", 4),
                   (18, "en", "0")]), 40)], 5),
    # a timed heap event in the middle of a stretch, and one on an edge
    "timed-event-inside-a-stretch": (10, 5, True, False, [
        (("timed", "en", "1", 22), 0), (("timed", "d", 7, 35), 80)], 5),
    # waiters that start and stop waiting mid-run
    "waiters-come-and-go": (6, 2, True, False, [
        (("none",), 20), (("waiter", RisingEdge, 2, 3), 5),
        (("waiter", FallingEdge, 3, 0), 31), (("none",), 25)], 5),
    # a process woken by a commit ends the quiet from inside a stretch
    "commit-wakes-a-chaser": (10, 5, True, False, [
        (("chaser", FallingEdge, 13), 12), (WAVE_ON_RISE, 60)], 5),
    # the VCD hook ends the quiet when it is attached
    "vcd-attached-mid-run": (10, 5, True, False, [
        (WAVE_ON_RISE, 33), (("none",), 40), (("none",), 12)], 1),
    # falling-edge logic keeps every edge general
    "falling-edge-logic": (4, 1, True, True, [
        (("wave", [(3, "en", "1")]), 30)], 0),
    # no compiled kernel at all: stretches are pure arithmetic
    "no-kernel-waveform-in-first-half-period": (10, 5, False, False, [
        (("wave", [(2, "d", 1), (5, "d", 2), (10, "d", 3)]), 4),
        (("none",), 57)], 5),
    # an edge-aligned batch onto a signal an event process reads
    "batch-wakes-an-event-reader": (4, 1, True, False, [
        (("none",), 0), (("none",), 5),
        (("wave", [(2, "obs", 1)]), 2)], 3),
    # a batch one tick after a rising edge applies there, not on the next
    "batch-just-off-a-rising-edge": (4, 1, True, False, [
        (("edges", [], 1, "none"), 7)], 1),
    # a callback-only batch on a rising edge opens no delta
    "callback-only-batch-on-a-rising-edge": (4, 1, "unread", False, [
        (("edges", [], 0, "none"), 0), (("timed", "d", 0, 3), 3)], 2),
    # completion callbacks that end the quiet inside a stretch
    "callback-adds-a-signal-hook": (4, 1, True, False, [
        (("none",), 5), (("edges", [], 0, "hook"), 3)], 2),
    "callback-schedules-a-timed-event": (10, 5, "unread", False, [
        (("edges", [(0, "d", 3), (1, "en", "1")], 0, "timed"), 60)], 1),
    "callback-parks-a-clock-waiter": (10, 5, "unread", False, [
        (("edges", [(0, "d", 3), (1, "en", "1")], 0, "waiter"), 60)], 1),
    # two streams due on the same rising edges, one onto a read signal
    "two-streams-on-the-same-edges": (10, 5, "unread", False, [
        (("pair", [(0, ("d", 3), ("en", "1")), (1, ("d", 5), ("d", 6)),
                   (3, ("en", "0"), ("obs", 4))], "none"), 60)], 1),
    # the bursty shape: a batch and a commit on every rising edge
    "busy-run-unread": (6, 2, "unread", False, [
        (("busy", 20, 1, "none"), 50), (("none",), 100)], 1),
    "busy-run-read-by-a-process": (6, 2, True, False, [
        (("busy", 8, 7, "timed"), 70)], 1),
}


@pytest.mark.parametrize("name", sorted(REGRESSIONS))
def test_quiet_stretch_regressions(name, tmp_path):
    assert_indistinguishable(REGRESSIONS[name], tmp_path)


def test_busy_edges_count_commits_and_absorbed_batches():
    """``busy_edges`` counts the edges inside a stretch that committed
    or absorbed a batch: a new d on rising edges 0-4 is absorbed there,
    and the register commits it on edges 1-5."""
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    engine = CycleEngine(sim, clk, period=10)
    d = sim.signal("d", width=4, init=0)
    reg = Register(sim, "reg", clk, d)
    rise = sim.next_rising_edge(clk)
    sim.schedule_waveform([(rise + 10 * k, d, k + 1) for k in range(5)],
                          start=0)
    sim.run(until=200)
    assert reg.q.as_int() == 5
    stats = engine.stats_snapshot()
    assert (stats["busy_edges"], stats["batches_absorbed"],
            stats["stretches"], stats["general_edges"]) == (6, 5, 1, 0)


def test_an_evaluation_that_raises_leaves_the_clock_consistent():
    """An exception out of a compiled evaluation mid-stretch settles
    the edges done so far: the run can be resumed.  Evaluations see
    the clock high, as on a general rising edge."""
    from repro.hdl import compile_kernel

    sim = Simulator()
    clk = sim.signal("clk", init="0")
    engine = CycleEngine(sim, clk, period=10)
    calls = []

    def builder(ctx):
        clk_slot = ctx.read(clk)

        def evaluate():
            assert clk_slot.value == clk.value == "1"
            calls.append(sim.now)
            if len(calls) == 3:
                raise RuntimeError("boom")
        return evaluate

    compile_kernel(sim, clk).add_seq("bomb", builder)
    with pytest.raises(RuntimeError):
        sim.run(until=100)
    assert calls == [5, 15, 25]
    assert sim.now == 25 and clk.value == "1"
    assert (engine.edges_applied, engine.cycles_run) == (5, 3)
    assert clk.change_count == 5 and clk.last_event_time == 25
    sim.run(until=100)
    assert calls == [5, 15, 25, 35, 45, 55, 65, 75, 85, 95]
    assert sim.now == 100 and engine.edges_applied == 20


@pytest.mark.parametrize("clocking", ["cycle", "general"])
def test_an_edge_whose_evaluation_raises_counts_no_evaluations(clocking):
    """``compiled_evals`` counts only edges whose sequential
    evaluations all completed, whichever path clocked them (the quiet
    path used to credit the edge that raised as well)."""
    from repro.hdl import compile_kernel

    sim = Simulator()
    clk = sim.signal("clk", init="0")
    engine = CycleEngine(sim, clk, period=10)
    if clocking == "general":
        sim.signal_hooks.append(lambda _signal: None)
    calls = []

    def bomb(ctx):
        def evaluate():
            calls.append(sim.now)
            if len(calls) == 5:
                raise RuntimeError("boom")
        return evaluate

    kernel = compile_kernel(sim, clk)
    kernel.add_seq("bomb", bomb)
    kernel.add_seq("idle", lambda ctx: lambda: None)
    with pytest.raises(RuntimeError):
        sim.run(until=200)
    stats = sim.stats_snapshot()
    assert calls == [5, 15, 25, 35, 45]
    assert stats["compiled_evals"] == 8
    assert (engine.edges_applied, stats["delta_cycles"],
            stats["events_executed"]) == (9, 10, 10)
