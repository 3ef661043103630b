"""Unit tests of the compiled (levelized) RTL backend.

Covers the compile-time contracts: unsupported-feature fallback per
component, the event-only selector, late compilation after the
simulator has initialized, and the kernel's statistics surface.
"""

import pytest

from repro.hdl import (CompileError, CompiledKernel, CycleEngine,
                       Simulator, UnsupportedFeature, compile_kernel,
                       raw_value, slot_int)
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
    """Minimal component: q toggles every clock."""

    def __init__(self, sim, name, clk):
        super().__init__(sim, name)
        self.q = self.signal("q", init="0")
        self._state = 0
        self.clocked(clk, self._compile_seq)

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


def test_auto_fallback_counts_and_still_runs(monkeypatch):
    sim, clk = make_sim()

    def refuse(_kernel, _label, _build):
        raise UnsupportedFeature("deliberately unsupported")

    monkeypatch.setattr(CompiledKernel, "add_seq", refuse)
    toggle = Toggle(sim, "t", clk)
    assert toggle.backends["seq"] == "event"
    assert sim.compiled_fallbacks == 1
    sim.run(until=2 * PERIOD)
    assert toggle.q.value == "0"   # toggled twice
    assert sim.stats_snapshot()["compiled_fallbacks"] == 1


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
            self.clocked(clk, self._compile_seq)

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
