"""Seeded randomised cross-level equivalence: behavioural twin vs RTL.

Each case replays one seeded, slot-aligned cell stream through the
same design at both abstraction levels and diffs the full contract
surface (output cells, records, policing verdicts, counters) via
:func:`repro.behav.run_equivalence`.
"""

import pytest

from repro.behav import KINDS, run_equivalence, run_kind
from repro.reference import EventClockedEnvironment
from repro.sweep import SweepSpec, run_sweep


def _explain(entry):
    """Compact failure description for the assert message."""
    return {key: entry[key] for key in
            ("streams", "records", "decisions", "counters")}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [1, 2])
def test_kind_equivalence_cycle_clocking(kind, seed):
    entry = run_kind(kind, cells=48, seed=seed)
    assert entry["passed"], _explain(entry)


def test_full_suite_under_event_clocking(monkeypatch):
    """The same suite with the RTL side on the reference module's
    event-clocked environment."""
    monkeypatch.setattr("repro.behav.equiv.CoVerificationEnvironment",
                        EventClockedEnvironment)
    report = run_equivalence(cells=32, seed=3)
    assert report["passed"], {
        kind: _explain(entry)
        for kind, entry in report["duts"].items()
        if not entry["passed"]}


def test_reports_are_meaningful_not_vacuous():
    report = run_equivalence(cells=48, seed=0)
    acct = report["duts"]["accounting"]
    assert acct["records"]["rtl_count"] > 0
    upc = report["duts"]["policer"]
    assert upc["decisions"]["rtl_count"] > 0
    for kind in ("port_module", "switch", "policer"):
        streams = report["duts"][kind]["streams"]
        assert sum(s["rtl_count"] for s in streams) > 0


@pytest.mark.parametrize("traffic", ["cbr", "poisson", "onoff"])
def test_sweep_scenario_matches_reference_at_both_levels(traffic):
    """The sweep scenario's reference-model comparison passes with the
    DUT at either level, for every traffic model."""
    spec = SweepSpec(traffic=[traffic], ports=[2], seeds=[7],
                     level=["rtl", "behav"], cells=8, jobs=1)
    payload = run_sweep(spec)
    by_level = {run["params"]["level"]: run for run in payload["runs"]}
    assert set(by_level) == {"rtl", "behav"}
    for level, run in by_level.items():
        assert run["status"] == "ok", (level, run)
        assert run["passed"], (level, run["comparison"])
        assert run["records"] > 0
    # behavioural runs report modelled clocks, and no sync protocol
    assert by_level["behav"]["sync_exchanges"] == 0
    assert by_level["behav"]["hdl_clocks"] > 0
    assert by_level["rtl"]["sync_exchanges"] > 0


def test_run_kind_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown DUT kind"):
        run_kind("fpga")
