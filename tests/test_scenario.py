"""``repro.scenario``: the one E1-shape builder."""

import subprocess
import sys

import pytest

from repro.scenario import ScenarioSpec, build_scenario, run_scenario


@pytest.mark.parametrize("traffic", ["cbr", "poisson", "onoff"])
def test_both_levels_charge_the_reference_records(traffic):
    """The same spec at either DUT level: every record matches the
    reference, and the two levels charge identical records."""
    records = {}
    for level in ("rtl", "behav"):
        scenario = build_scenario(ScenarioSpec(
            traffic=traffic, cells=48, seed=1, level=level, observe=False))
        counts = run_scenario(scenario)
        assert scenario.dut.level == level
        assert counts["cells"] == 48
        report = scenario.compare(level)
        assert report.passed and report.matched == 4, report.summary()
        records[level] = sorted(scenario.dut.records())
    assert records["rtl"] == records["behav"]


def test_unknown_traffic_model_is_rejected():
    with pytest.raises(ValueError, match="unknown traffic model"):
        build_scenario(ScenarioSpec(traffic="mpeg"))


def test_no_package_imports_the_scenario_module():
    """Importing ``repro`` and every subpackage leaves the scenario
    module unloaded: only its callers import it, when they run."""
    code = (
        "import importlib, pkgutil, sys, repro\n"
        "for info in pkgutil.iter_modules(repro.__path__):\n"
        "    if info.ispkg:\n"
        "        importlib.import_module('repro.' + info.name)\n"
        "print('repro.scenario' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
