"""Regression: a tariff tick closes the DUT's interval exactly where the
network side closed it.

Two ways a tick used to land in the wrong interval:

* it overtook cells still queued in the entity's ``CellSender``: the
  pulse was driven at release time, so cells released before the tick
  but still waiting to clock in were charged to the next interval;
* it was released exactly on a rising clock edge: that edge had
  sampled ``tariff_tick`` already, and the pulse's fall landed on the
  next edge before it sampled, so no edge saw the tick at all.

The pulse now waits for the sender's queue to drain and starts one
tick late when it is due on the edge just evaluated.
"""

import pytest

from repro.core import CoVerificationEnvironment, TimeBase
from repro.rtl import AccountingUnitRtl, RecordBusMonitor
from repro.scenario import ScenarioSpec, build_scenario, run_scenario

TB = TimeBase.for_line_rate()
PERIOD = TB.clock_period_ticks


def test_a_tick_at_every_clock_phase_closes_the_interval_once():
    """One tick per phase of a clock period, each several periods
    after the last: every tick closes exactly one interval, and the
    records carry the interval indices in order."""
    env = CoVerificationEnvironment(timebase=TB, observe=False)
    unit = AccountingUnitRtl(env.hdl, "acct", env.clk)
    unit.register(1, 100)
    entity = env.add_dut(rx_port=unit.rx, tick_signal=unit.tariff_tick)
    monitor = RecordBusMonitor(env.hdl, "records", env.clk, unit)
    first_rise = env.hdl.next_rising_edge(env.clk, after=-1)
    times = [TB.to_seconds(first_rise + (4 * k + 1) * PERIOD + k)
             for k in range(PERIOD)]
    for t in times:
        entity.send_tariff_tick(t)
    entity.finish(times[-1] + TB.cell_time_seconds)
    env.hdl.run(until=env.hdl.now + 16 * PERIOD)
    assert entity.ticks_in == PERIOD
    assert unit.interval == PERIOD
    assert [record[2] for record in monitor.records()] \
        == list(range(PERIOD))


@pytest.mark.parametrize("level", ["rtl", "behav"])
@pytest.mark.parametrize("load", [
    0.25,   # the closing tick is released with 15 cells queued
    0.2,    # the closing tick is released on a rising edge
])
def test_closing_tick_charges_every_cell_to_its_interval(load, level):
    scenario = build_scenario(ScenarioSpec(
        traffic="poisson", ports=4, seed=0, cells=800, load=load,
        level=level, observe=False))
    counts = run_scenario(scenario)
    report = scenario.compare("tick-release")
    assert counts["cells"] == 800
    assert report.passed, report.summary()
    assert report.matched == 4
