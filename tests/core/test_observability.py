"""Tests for the environment-level observability surface.

Covers ``env.metrics()``, the observe/trace
wiring, the stale-advance accounting of both synchronisers and the
finish-residual warning (satellites 1 and 2).
"""

import json
import warnings

import pytest

from repro.atm import AtmCell
from repro.core import (CoVerificationEnvironment,
                        ResidualBacklogWarning, TimeBase)
from repro.rtl import AccountingUnitRtl

TB = TimeBase(tick_seconds=1e-9, clock_period_ticks=10)


def build_env(**kwargs):
    env = CoVerificationEnvironment(timebase=TB, **kwargs)
    dut = AccountingUnitRtl(env.hdl, "acct", env.clk)
    dut.register(1, 100, units_per_cell=2)
    entity = env.add_dut(rx_port=dut.rx, tick_signal=dut.tariff_tick)
    return env, entity


def drive(env, entity, cells=4):
    for k in range(cells):
        entity.send_cell((k + 1) * 1e-5, AtmCell.with_payload(1, 100,
                                                              [k]))
    entity.advance_time(cells * 1e-5 + 1e-5)
    env.finish()


class TestMetrics:
    def test_metrics_report_required_keys(self):
        env, entity = build_env()
        drive(env, entity)
        report = env.metrics()
        sync = report["entities"][0]["sync"]
        for key in ("windows_granted", "null_messages", "stale_advances",
                    "messages_posted", "messages_released", "drains",
                    "max_lag_seconds"):
            assert key in sync
        assert sync["windows_granted"] > 0
        assert sync["drains"] == 1
        assert report["hdl_kernel"]["events_executed"] > 0
        assert report["hdl_kernel"]["delta_cycles"] > 0
        assert report["netsim_kernel"]["executed_events"] == 0
        hists = report["instruments"]["histograms"]
        assert hists["sync.lag_s"]["count"] > 0
        assert hists["cosim.cell_ingress_latency_s"]["count"] == 4
        assert report["instruments"]["counters"][
            "cosim.latency_unmatched"] == 0

    def test_observe_false_omits_instruments(self):
        env, entity = build_env(observe=False)
        drive(env, entity)
        report = env.metrics()
        assert "instruments" not in report
        # the always-on protocol statistics still work
        assert report["entities"][0]["sync"]["messages_posted"] == 4

    def test_trace_records_schema(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        env, entity = build_env(trace=trace_path)
        drive(env, entity)
        records = [json.loads(line)
                   for line in trace_path.read_text().splitlines()]
        kinds = {r["ev"] for r in records}
        assert {"post", "null", "window", "release", "drain",
                "finish"} <= kinds
        assert env.metrics()["trace_records"] == len(records)
        for record in records:
            if record["ev"] == "post":
                assert record["type"] == "cell"
                assert record["t"] > 0


class TestStaleAdvances:
    def test_conservative_counts_stale_nulls(self):
        env, entity = build_env()
        entity.advance_time(1e-5)
        entity.advance_time(0.5e-5)  # behind the known originator time
        stats = entity.sync.stats
        assert stats.stale_advances == 1
        assert stats.null_messages == 2

    def test_lockstep_stale_null_is_counted_noop(self):
        env, entity = build_env(lockstep=True)
        entity.advance_time(1e-5)
        before_now = env.hdl.now
        before_nulls = entity.sync.stats.null_messages
        entity.advance_time(0.5e-5)  # in the HDL past: no-op, counted
        assert env.hdl.now == before_now
        assert entity.sync.stats.stale_advances == 1
        assert entity.sync.stats.null_messages == before_nulls
        # the originator lower bound is never lowered
        assert entity.sync.originator_time == 1e-5

    def test_conservative_null_at_originator_time_is_not_stale(self):
        """Only a stamp strictly behind the known originator time is
        stale; repeating the same stamp is a live null message."""
        env, entity = build_env()
        entity.advance_time(1e-5)
        entity.advance_time(1e-5)
        stats = entity.sync.stats
        assert stats.stale_advances == 0
        assert stats.null_messages == 2

    def test_lockstep_null_at_hdl_now_is_stale(self):
        """A stamp exactly at the HDL's local time is already covered:
        lockstep counts it stale and runs no clock."""
        env, entity = build_env(lockstep=True)
        entity.advance_time(1e-5)
        before_now = env.hdl.now
        before_nulls = entity.sync.stats.null_messages
        entity.advance_time(env.timebase.to_seconds(env.hdl.now))
        assert env.hdl.now == before_now
        assert entity.sync.stats.stale_advances == 1
        assert entity.sync.stats.null_messages == before_nulls


class TestFinishResidual:
    def test_residual_backlog_warns(self):
        env, entity = build_env(lockstep=True, observe=False)
        # all cells land at one instant: the sender's backlog cannot
        # clear within a one-cell-time settle budget
        for k in range(6):
            entity.send_cell(1e-5, AtmCell.with_payload(1, 100, [k]))
        with pytest.warns(ResidualBacklogWarning,
                          match=r"\d+ stimulus cell\(s\) still queued"):
            entity.finish(1e-5, max_settle_cells=1)
        assert entity.sender.backlog > 0

    def test_clean_finish_does_not_warn(self):
        env, entity = build_env()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResidualBacklogWarning)
            drive(env, entity)
        assert entity.sender.backlog == 0
