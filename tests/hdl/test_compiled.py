"""Unit tests of the compiled (levelized) RTL backend.

Covers the compile-time contracts: levelization order, combinational
cycle diagnostics (the error names the looping signals), unsupported
feature fallback per component, the event-only selector, late
compilation after the simulator has initialized, and the kernel's
statistics surface.
"""

import pytest

from repro.hdl import (CombinationalCycleError, CompileError,
                       CompiledKernel, CycleEngine, Simulator,
                       UnsupportedFeature, compile_kernel, raw_value,
                       slot_int)
from repro.rtl import Component

PERIOD = 10


def make_sim(clocking="cycle", backend=None):
    sim = Simulator()
    if backend is not None:
        sim.rtl_backend = backend
    clk = sim.signal("clk", init="0")
    if clocking == "cycle":
        CycleEngine(sim, clk, period=PERIOD)
    else:
        sim.add_clock(clk, period=PERIOD)
    return sim, clk


class Toggle(Component):
    """Minimal compiled component: q toggles every clock."""

    def __init__(self, sim, name, clk, compile_fn="default"):
        super().__init__(sim, name)
        self.q = self.signal("q", init="0")
        self._state = 0
        if compile_fn == "default":
            compile_fn = self._compile_seq
        self.clocked(clk, self._tick, compile_fn=compile_fn)

    def _tick(self):
        self._state ^= 1
        self.q.drive("1" if self._state else "0")

    def _compile_seq(self, ctx):
        w_q = ctx.write(self.q)

        def evaluate():
            self._state ^= 1
            w_q("1" if self._state else "0")

        return evaluate


# ---------------------------------------------------------------------------
# Kernel construction and registration contracts
# ---------------------------------------------------------------------------

def test_compile_kernel_is_cached_per_clock():
    sim, clk = make_sim()
    assert compile_kernel(sim, clk) is compile_kernel(sim, clk)
    other = sim.signal("clk2", init="0")
    assert compile_kernel(sim, other) is not compile_kernel(sim, clk)


def test_vector_clock_rejected():
    sim, _clk = make_sim()
    bus = sim.signal("bus", width=8, init=0)
    with pytest.raises(UnsupportedFeature):
        CompiledKernel(sim, bus)


def test_foreign_simulator_signal_rejected():
    sim, clk = make_sim()
    other_sim = Simulator()
    foreign = other_sim.signal("foreign", init="0")
    kernel = compile_kernel(sim, clk)

    def builder(ctx):
        ctx.read(foreign)
        return lambda: None

    with pytest.raises(UnsupportedFeature):
        kernel.add_seq("t", builder)


def test_double_writer_rejected():
    sim, clk = make_sim()
    out = sim.signal("out", init="0")
    kernel = compile_kernel(sim, clk)

    def builder(ctx):
        w = ctx.write(out)
        return lambda: w("1")

    kernel.add_seq("first", builder)
    with pytest.raises(UnsupportedFeature):
        kernel.add_seq("second", builder)


def test_foreign_driver_at_compile_time_rejected():
    sim, clk = make_sim()
    out = sim.signal("out", init="0")
    out.drive("1")
    sim.run(until=PERIOD)          # the anonymous driver now owns out
    kernel = compile_kernel(sim, clk)

    def builder(ctx):
        w = ctx.write(out)
        return lambda: w("0")

    with pytest.raises(UnsupportedFeature):
        kernel.add_seq("t", builder)


def test_compile_hook_must_return_callable():
    sim, clk = make_sim()
    kernel = compile_kernel(sim, clk)
    with pytest.raises(CompileError):
        kernel.add_seq("bad", lambda ctx: None)


# ---------------------------------------------------------------------------
# Combinational levelization
# ---------------------------------------------------------------------------

def _comb_chain(sim, clk, order):
    """a -> b -> c combinational chain registered in *order*; a is
    sequential (toggles), b = a, c = b."""
    kernel = compile_kernel(sim, clk)
    a = sim.signal("a", init="0")
    b = sim.signal("b", init="0")
    c = sim.signal("c", init="0")
    state = {"v": 0}

    def seq(ctx):
        w_a = ctx.write(a)

        def evaluate():
            state["v"] ^= 1
            w_a("1" if state["v"] else "0")

        return evaluate

    def make_buffer(src, dst):
        def builder(ctx):
            r = ctx.read(src)
            w = ctx.write(dst)
            return lambda: w(r.value)
        return builder

    kernel.add_seq("seq", seq)
    builders = {"b": make_buffer(a, b), "c": make_buffer(b, c)}
    for key in order:
        kernel.add_comb(key, builders[key])
    return a, b, c


@pytest.mark.parametrize("order", [("b", "c"), ("c", "b")])
def test_comb_chain_levelized_regardless_of_order(order):
    sim, clk = make_sim()
    a, b, c = _comb_chain(sim, clk, order)
    sim.run(until=PERIOD)          # one rising edge
    assert (a.value, b.value, c.value) == ("1", "1", "1")
    sim.run(until=2 * PERIOD)
    assert (a.value, b.value, c.value) == ("0", "0", "0")


def make_buffer(src, dst):
    def builder(ctx):
        r = ctx.read(src)
        w = ctx.write(dst)
        return lambda: w(r.value)
    return builder


def test_combinational_cycle_diagnostic_names_signals():
    sim, clk = make_sim()
    kernel = compile_kernel(sim, clk)
    x = sim.signal("loop.x", init="0")
    y = sim.signal("loop.y", init="0")
    kernel.add_comb("xy", make_buffer(x, y))   # forward-reads x
    with pytest.raises(CombinationalCycleError) as excinfo:
        kernel.add_comb("yx", make_buffer(y, x))
    message = str(excinfo.value)
    assert "loop.x" in message and "loop.y" in message


def test_self_dependent_comb_is_a_cycle():
    sim, clk = make_sim()
    kernel = compile_kernel(sim, clk)
    q = sim.signal("latch.q", init="0")
    with pytest.raises(CombinationalCycleError) as excinfo:
        kernel.add_comb("latch", make_buffer(q, q))
    assert "latch.q" in str(excinfo.value)


def test_comb_input_with_foreign_driver_rejected_at_registration():
    sim, clk = make_sim()
    kernel = compile_kernel(sim, clk)
    outside = sim.signal("outside", init="0")
    outside.drive("1")
    sim.run(until=PERIOD)          # anonymous driver now owns outside
    out = sim.signal("out", init="0")
    with pytest.raises(UnsupportedFeature) as excinfo:
        kernel.add_comb("c", make_buffer(outside, out))
    assert "outside" in str(excinfo.value)


def test_unresolved_forward_reference_fails_at_initialize():
    sim, clk = make_sim()
    kernel = compile_kernel(sim, clk)
    pending = sim.signal("pending", init="0")
    out = sim.signal("out", init="0")
    kernel.add_comb("c", make_buffer(pending, out))  # tolerated now...
    with pytest.raises(UnsupportedFeature) as excinfo:
        sim.run(until=PERIOD)      # ...but nothing ever wrote it
    assert "pending" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Backend selection and fallback
# ---------------------------------------------------------------------------

def test_backend_inherits_simulator_default():
    sim, clk = make_sim()
    assert sim.rtl_backend == "compiled"
    sim.rtl_backend = "event"
    toggle = Toggle(sim, "t", clk)
    assert toggle.backends["seq"] == "event"
    assert sim.stats_snapshot()["compiled_components"] == 0
    assert sim.compiled_fallbacks == 0
    sim.run(until=3 * PERIOD)
    assert toggle.q.value == "1"


def test_invalid_backend_rejected():
    sim, clk = make_sim(backend="vliw")
    with pytest.raises(ValueError, match="rtl_backend"):
        Toggle(sim, "t", clk)


def test_auto_fallback_counts_and_still_runs():
    sim, clk = make_sim()

    def refuse(_ctx):
        raise UnsupportedFeature("deliberately unsupported")

    toggle = Toggle(sim, "t", clk, compile_fn=refuse)
    assert toggle.backends["seq"] == "event"
    assert sim.compiled_fallbacks == 1
    sim.run(until=2 * PERIOD)
    assert toggle.q.value == "0"   # toggled twice
    assert sim.stats_snapshot()["compiled_fallbacks"] == 1


def test_missing_hook_runs_event_body_uncounted():
    sim, clk = make_sim()
    toggle = Toggle(sim, "t", clk, compile_fn=None)
    assert toggle.backends["seq"] == "event"
    assert sim.compiled_fallbacks == 0
    sim.run(until=3 * PERIOD)
    assert toggle.q.value == "1"


# ---------------------------------------------------------------------------
# Execution semantics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("clocking", ["event", "cycle"])
def test_compiled_toggle_matches_event_toggle(clocking):
    traces = {}
    for backend in ("event", "compiled"):
        sim, clk = make_sim(clocking, backend)
        toggle = Toggle(sim, "t", clk)
        assert toggle.backends["seq"] == backend
        assert sim.compiled_fallbacks == 0
        changes = []
        sim.signal_hooks.append(
            lambda s, changes=changes: changes.append(
                (sim.now, s.name, s.value)))
        sim.run(until=6 * PERIOD)
        traces[backend] = [c for c in changes if c[1] == "t.q"]
        assert toggle.q.change_count == 6
    assert traces["compiled"] == traces["event"]


def test_late_component_compiles_after_initialize():
    sim, clk = make_sim()
    sim.run(until=2 * PERIOD)
    toggle = Toggle(sim, "late", clk)
    assert toggle.backends["seq"] == "compiled"
    assert sim.compiled_fallbacks == 0
    sim.run(until=4 * PERIOD)
    assert toggle.q.value == "0"   # two edges seen -> toggled twice
    assert toggle.q.change_count >= 2


def test_stats_snapshot_reports_compiled_activity():
    sim, clk = make_sim()
    toggle = Toggle(sim, "t", clk)
    assert toggle.backends["seq"] == "compiled"
    sim.run(until=4 * PERIOD)
    stats = sim.stats_snapshot()
    assert stats["compiled_components"] == 1
    assert stats["compiled_evals"] == 4          # one eval per edge
    assert stats["compiled_commit_writes"] == 4  # q changes every edge
    assert stats["compiled_fallbacks"] == 0
    kernel = compile_kernel(sim, clk)
    snap = kernel.stats_snapshot()
    assert snap["seq_evals"] == 1
    assert snap["comb_evals"] == 0
    assert snap["evals_run"] == 4
    assert snap["commit_writes"] == 4


def test_idle_compiled_component_schedules_no_commit():
    """A compiled process whose outputs never change must not cost
    commit work (the no-op-drive elimination the backend exists for)."""
    sim, clk = make_sim()

    class Idle(Component):
        def __init__(self, sim, name, clk):
            super().__init__(sim, name)
            self.q = self.signal("q", init="0")
            self.clocked(clk, lambda: self.q.drive("0"),
                         compile_fn=self._compile_seq)

        def _compile_seq(self, ctx):
            w_q = ctx.write(self.q)
            return lambda: w_q("0")

    idle = Idle(sim, "idle", clk)
    assert idle.backends["seq"] == "compiled"
    assert sim.compiled_fallbacks == 0
    sim.run(until=50 * PERIOD)
    baseline_runs = sim.process_runs
    sim.run(until=100 * PERIOD)
    assert sim.process_runs == baseline_runs   # no commits, no runs
    stats = sim.stats_snapshot()
    assert stats["compiled_evals"] == 100
    assert stats["compiled_commit_writes"] == 0


def test_runtime_foreign_driver_resolves_with_ieee_table():
    """A driver appearing on a compiled output *after* compilation is
    resolved through the IEEE-1164 table at commit time."""
    sim, clk = make_sim()
    toggle = Toggle(sim, "t", clk)
    assert toggle.backends["seq"] == "compiled"
    assert sim.compiled_fallbacks == 0
    sim.run(until=PERIOD)
    assert toggle.q.value == "1"
    toggle.q.drive("0")            # anonymous test-bench contender
    sim.run(until=3 * PERIOD)      # edges at 15 ('0'|'0') and 25 ('1'|'0')
    assert toggle.q.value == "X"


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def test_slot_int_passthrough_and_vector():
    assert slot_int(42) == 42
    assert slot_int(("1", "0", "1")) == 5


def test_raw_value_normalizes_per_signal():
    sim, _clk = make_sim()
    scalar = sim.signal("s", init="0")
    bus = sim.signal("v", width=4, init=0)
    assert raw_value(scalar, 1) == "1"
    assert raw_value(bus, 5) == 5
    assert raw_value(bus, "ZZZZ") == ("Z", "Z", "Z", "Z")
