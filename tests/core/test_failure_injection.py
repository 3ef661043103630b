"""Failure injection across the co-verification boundary.

A verification environment earns its keep on the *unhappy* paths:
these tests inject protocol violations, kernel errors and DUT losses
and check each surfaces as a loud, attributable failure instead of a
silent divergence.
"""

import pytest

from repro.atm import AtmCell
from repro.core import (CausalityError, CoVerificationEnvironment,
                        ConservativeSynchronizer, StreamComparator,
                        TimeBase)
from repro.hdl import CombinationalLoopError, Simulator
from repro.rtl import AtmPortModuleRtl


CELL_PERIOD = 4e-6


def test_handler_exception_propagates_not_swallowed():
    """A failing delivery handler must abort the run, not vanish."""
    tb = TimeBase(tick_seconds=1e-9, clock_period_ticks=10)
    hdl = Simulator()
    clk = hdl.signal("clk", init="0")
    hdl.add_clock(clk, period=10)

    def bad_handler(message):
        raise RuntimeError("handler exploded")

    sync = ConservativeSynchronizer(hdl, tb, {"cell": 55},
                                    handlers={"cell": bad_handler})
    with pytest.raises(RuntimeError, match="handler exploded"):
        sync.post("cell", 1e-6, "payload")


def test_stale_post_after_drain_rejected():
    tb = TimeBase(tick_seconds=1e-9, clock_period_ticks=10)
    hdl = Simulator()
    clk = hdl.signal("clk", init="0")
    hdl.add_clock(clk, period=10)
    sync = ConservativeSynchronizer(hdl, tb, {"cell": 55})
    sync.post("cell", 5e-6, None)
    sync.drain(6e-6)
    with pytest.raises(CausalityError):
        sync.post("cell", 1e-6, None)


def test_combinational_loop_in_dut_surfaces_through_cosim():
    """An HDL-level pathology inside the DUT aborts the coupled run
    with the HDL kernel's own diagnosis."""
    env = CoVerificationEnvironment()
    dut = AtmPortModuleRtl(env.hdl, "dut", env.clk)
    dut.install(1, 100, 2, 200)
    entity = env.add_dut(rx_port=dut.rx, tx_port=dut.tx)

    # sabotage: a zero-delay feedback loop inside the "design"
    a = env.hdl.signal("loop", init="0")
    env.hdl.add_process(
        "oscillator",
        lambda s: a.drive("1" if a.value == "0" else "0"),
        sensitivity=[a])

    with pytest.raises(CombinationalLoopError):
        entity.send_cell(1e-6, AtmCell.with_payload(1, 100, []))


def test_dut_dropping_cells_fails_the_comparison():
    """A DUT that silently loses traffic cannot pass: the comparator
    reports the missing responses."""
    env = CoVerificationEnvironment()
    dut = AtmPortModuleRtl(env.hdl, "dut", env.clk)
    # connection NOT installed: the port module drops every cell
    entity = env.add_dut(rx_port=dut.rx, tx_port=dut.tx)
    comparator = StreamComparator("dropper")
    entity.on_output = lambda t, c: comparator.add_observed(c.vci)
    for k in range(4):
        when = (k + 1) * CELL_PERIOD
        entity.send_cell(when, AtmCell.with_payload(1, 100, [k]))
        comparator.add_reference(200)
    entity.finish(5 * CELL_PERIOD)
    report = comparator.compare()
    assert not report.passed
    assert report.missing == 4
    assert dut.unknown_connections == 4


def test_duplicated_dut_output_fails_the_comparison():
    """The dual failure: extra (duplicated) responses are flagged as
    unexpected."""
    comparator = StreamComparator("dup")
    comparator.extend_reference([1, 2])
    comparator.extend_observed([1, 1, 2])
    report = comparator.compare()
    assert not report.passed
    assert report.unexpected == 1 or report.mismatches


def test_corrupted_cell_on_the_wire_detected_at_unpack():
    """Header corruption between DUT and comparator surfaces as a HEC
    failure in the abstraction interface, not as a wrong value."""
    from repro.atm import CellFormatError
    from repro.core import CellMapper
    mapper = CellMapper()
    octets = mapper.cell_to_octets(AtmCell.with_payload(1, 100, [1]))
    octets[2] ^= 0x40
    with pytest.raises(CellFormatError):
        mapper.octets_to_cell(octets)


def test_environment_survives_dut_with_no_traffic():
    """Degenerate run: nothing sent; finish() must terminate."""
    env = CoVerificationEnvironment()
    dut = AtmPortModuleRtl(env.hdl, "dut", env.clk)
    env.add_dut(rx_port=dut.rx, tx_port=dut.tx)
    env.run(until=1e-5)
    env.finish()
    assert all(report.passed for report in env.reports())
