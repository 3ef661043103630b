"""Tier-1 count gate: the work counts of one small fixed RTL
co-simulation, pinned.

The kernel's counters are deterministic for a fixed scenario, and they
are what an optimisation of the HDL side must not move: one delta cycle
more per clock, one null message more per window or one waveform event
less per cell is a modelling change that a wall-clock bound on a shared
host cannot see.  This is the scenario of ``python -m repro stats`` at
64 cells (16 CBR cells per port into ``AccountingUnitRtl``), run in
milliseconds.  A change that moves a number here on purpose edits the
pin in the same commit and says why.
"""

import pytest

from repro.obs.scenario import run_observed_e1

HDL_COUNTS = {
    "now_ticks": 189358,
    "events_executed": 8130,
    "signal_events": 8063,
    "delta_cycles": 7898,
    "process_runs": 26,
    "waveforms_scheduled": 64,
    "waveform_events": 700,
    "compiled_evals": 3713,
    "compiled_commit_writes": 26,
    "compiled_fallbacks": 0,
}
SYNC_COUNTS = {
    "messages_posted": 65,
    "null_messages": 65,
    "null_messages_coalesced": 16,
    "windows_granted": 17,
}


@pytest.fixture(scope="module")
def report():
    return run_observed_e1(cells=64)


def test_hdl_kernel_counts_are_pinned(report):
    kernel = report["hdl_kernel"]
    assert {key: kernel[key] for key in HDL_COUNTS} == HDL_COUNTS
    assert report["netsim_kernel"]["executed_events"] == 448


def test_synchroniser_counts_are_pinned(report):
    (entity,) = report["entities"]
    assert entity["cells_in"] == 64
    assert {key: entity["sync"][key] for key in SYNC_COUNTS} == SYNC_COUNTS


def test_clock_engine_counts_the_cycles_of_an_environment_run(report):
    """``cycles_run`` is the number of rising edges applied, whichever
    entry point drove them (it used to count ``run_cycles`` calls only
    and read 0 after every co-simulation)."""
    engine = report["clock_engine"]
    now = report["hdl_kernel"]["now_ticks"]
    period = engine["period_ticks"]
    # rising edges lie at low + k * period, low = period - period // 2
    assert engine["cycles_run"] == (now + period // 2) // period == 3713
    assert engine["edges_applied"] == 7425
    # one sequential evaluation per rising edge: the DUT is one component
    assert report["hdl_kernel"]["compiled_evals"] == engine["cycles_run"]
