"""Level selection and validation: resolve_level, REPRO_DUT_LEVEL,
add_dut's two coupling forms, and the level-agnostic factory."""

import pytest

from repro.behav import AtmPortModuleBehav, build_dut
from repro.core import (CoVerificationEnvironment, DUT_LEVELS,
                        resolve_level)
from repro.obs.profile import attach_profiling


def test_resolve_level_precedence():
    # explicit wins over any default
    assert resolve_level("rtl", default="behav") == "rtl"
    assert resolve_level("behav", default="rtl") == "behav"
    # None falls to the default; "auto" falls to the fallback
    assert resolve_level(None, default="behav") == "behav"
    assert resolve_level(None, default="auto") == "rtl"
    assert resolve_level("auto", default="behav", fallback="rtl") == \
        "rtl"
    with pytest.raises(ValueError):
        resolve_level("gate", default="rtl")
    assert DUT_LEVELS == ("rtl", "behav")


def test_env_level_policy_from_argument_and_environ(monkeypatch):
    monkeypatch.delenv("REPRO_DUT_LEVEL", raising=False)
    env = CoVerificationEnvironment(observe=False)
    assert env.dut_level == "auto"
    assert env.resolved_dut_level() == "rtl"

    monkeypatch.setenv("REPRO_DUT_LEVEL", "behav")
    env = CoVerificationEnvironment(observe=False)
    assert env.resolved_dut_level() == "behav"
    # the constructor argument beats the environment variable
    env = CoVerificationEnvironment(observe=False, dut_level="rtl")
    assert env.resolved_dut_level() == "rtl"
    # a per-call override beats both
    assert env.resolved_dut_level("behav") == "behav"

    monkeypatch.setenv("REPRO_DUT_LEVEL", "netlist")
    with pytest.raises(ValueError, match="netlist"):
        CoVerificationEnvironment(observe=False)


def test_add_dut_validates_the_coupling_form():
    env = CoVerificationEnvironment(observe=False)
    twin = AtmPortModuleBehav("pm", timebase=env.timebase)
    # behavioural form with a contradicting level
    with pytest.raises(ValueError, match="contradicts"):
        env.add_dut(behav=twin, level="rtl")
    # RTL form without the required rx port
    with pytest.raises(TypeError, match="rx_port"):
        env.add_dut()
    # mixing the forms
    from repro.rtl import CellStreamPort
    rx = CellStreamPort(env.hdl, "rx")
    with pytest.raises(ValueError, match="no HDL ports"):
        env.add_dut(rx_port=rx, behav=twin)
    with pytest.raises(ValueError, match="requires a behavioural"):
        env.add_dut(rx_port=rx, level="behav")


def test_factory_builds_by_policy(monkeypatch):
    monkeypatch.setenv("REPRO_DUT_LEVEL", "behav")
    env = CoVerificationEnvironment(observe=False)
    handle = build_dut(env, "accounting")
    assert handle.level == "behav"
    assert handle.entity.level == "behav"
    # per-call override forces RTL despite the environment policy
    rtl_handle = build_dut(env, "port_module", name="pm", level="rtl")
    assert rtl_handle.level == "rtl"
    assert rtl_handle.entity.level == "rtl"
    with pytest.raises(ValueError, match="unknown DUT kind"):
        build_dut(env, "fpga")
    env.close()


def test_metrics_snapshot_reports_levels():
    env = CoVerificationEnvironment(observe=False)
    twin = AtmPortModuleBehav("pm", timebase=env.timebase)
    env.add_dut(behav=twin)
    snapshot = env.metrics()
    (entity_snapshot,) = snapshot["entities"]
    assert entity_snapshot["level"] == "behav"
    assert "sync" not in entity_snapshot


def test_profiling_skips_behavioural_entities():
    env = CoVerificationEnvironment()  # observability on
    twin = AtmPortModuleBehav("pm", timebase=env.timebase)
    env.add_dut(behav=twin)
    names = attach_profiling(env)  # must not trip on missing .sync
    assert names
