"""E5 — the ATM accounting unit case study (paper §4).

"We have used CASTANET for the functional verification of an ATM
accounting unit."

One network-level test bench — traffic models plus tariff ticks — is
reused against all three targets of Figure 1:

(a) the algorithm reference model (:class:`repro.atm.AccountingUnit`),
(b) the RTL implementation coupled via CASTANET co-simulation,
(c) the same RTL mounted on the hardware test board (functional chip
    verification).

A correct DUT matches the reference through both paths; injected RTL
bugs are caught through both paths.  This is the paper's core promise:
the test bench is authored once, at the highest abstraction level.
"""

import pytest

from repro.analysis import ExperimentResult, format_table
from repro.atm import AtmCell
from repro.board import HardwareTestBoard, RtlPinDevice
from repro.core import (BoardInterfaceModel, StreamComparator,
                        cell_stream_pin_config)
from repro.hdl import Simulator
from repro.rtl import AccountingUnitRtl
from repro.scenario import two_interval_cosim, two_interval_reference
from repro.traffic import OnOffSource, PoissonArrivals

from .common import CELL_TIME, save_table, scaled

CELLS = scaled(60)

CONNECTIONS = [
    # (vpi, vci, units_per_cell, units_clp1, fixed)
    (1, 100, 2, 1, 5),
    (1, 200, 3, 0, 0),
    (2, 300, 1, 1, 7),
]


def network_level_testbench(seed=7):
    """The single source of truth: a deterministic cell workload built
    from the traffic-model library (bursty + Poisson mix)."""
    onoff = OnOffSource(peak_period=CELL_TIME, mean_on=20 * CELL_TIME,
                        mean_off=40 * CELL_TIME, seed=seed)
    poisson = PoissonArrivals(rate=0.2 / CELL_TIME, seed=seed + 1)
    cells = []
    t_a = 0.0
    t_b = 0.0
    for index in range(CELLS):
        if index % 2 == 0:
            t_a += onoff.next_interarrival()
            vpi, vci, *_ = CONNECTIONS[index % len(CONNECTIONS)]
            cells.append((t_a, AtmCell.with_payload(
                vpi, vci, [index % 256], clp=(index // 2) % 2)))
        else:
            t_b += poisson.next_interarrival()
            vpi, vci, *_ = CONNECTIONS[(index + 1) % len(CONNECTIONS)]
            cells.append((t_b, AtmCell.with_payload(
                vpi, vci, [index % 256], clp=0)))
    cells.sort(key=lambda item: item[0])
    # enforce line discipline: successive cells at least a cell apart
    spaced = []
    t_prev = 0.0
    for t, cell in cells:
        t = max(t, t_prev + CELL_TIME)
        spaced.append((t, cell))
        t_prev = t
    return spaced


def board_run(workload, bug=None):
    """Path (c): the same RTL mounted on the hardware test board."""
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    sim.add_clock(clk, period=10)
    dut = AccountingUnitRtl(sim, "acct", clk, bug=bug)
    for vpi, vci, upc, upc1, fixed in CONNECTIONS:
        dut.register(vpi, vci, units_per_cell=upc,
                     units_per_cell_clp1=upc1, fixed_units=fixed)
    config = cell_stream_pin_config()
    device = RtlPinDevice(
        sim, clk, config,
        input_signals={1: dut.rx.atmdata, 2: dut.rx.cellsync,
                       3: dut.rx.valid, 4: dut.tariff_tick},
        output_signals={1: dut.rec_valid, 2: dut.rec_word})
    board = HardwareTestBoard(config, memory_depth=1 << 16)
    interface = BoardInterfaceModel(board, device, cycle_clocks=2048)
    split = len(workload) // 2
    for index, (_t, cell) in enumerate(workload):
        if index == split:
            interface.queue_tariff_tick()
        interface.queue_cell(cell)
    interface.queue_tariff_tick()
    interface.flush()
    return interface.records(), interface


def verdict(expected, observed, name):
    comparator = StreamComparator(name, normalize="sorted")
    comparator.extend_reference(expected)
    comparator.extend_observed(observed)
    return comparator.compare()


def test_e5_correct_dut_passes_all_paths(benchmark):
    workload = network_level_testbench()
    expected = two_interval_reference(workload, CONNECTIONS)

    def run_once():
        cosim_records = two_interval_cosim(workload, CONNECTIONS)
        board_records, interface = board_run(workload)
        return (verdict(expected, cosim_records, "cosim"),
                verdict(expected, board_records, "board"), interface)

    cosim_report, board_report, interface = benchmark.pedantic(
        run_once, rounds=1, iterations=1)

    rows = [
        ExperimentResult("reference (algorithm model)", {
            "records": len(expected), "verdict": "—"}),
        ExperimentResult("RTL via CASTANET co-simulation", {
            "records": cosim_report.compared,
            "verdict": "PASS" if cosim_report.passed else "FAIL"}),
        ExperimentResult("chip on hardware test board", {
            "records": board_report.compared,
            "verdict": "PASS" if board_report.passed else "FAIL"}),
    ]
    save_table("e5_case_study.txt", format_table(
        f"E5: accounting-unit verification, {CELLS} cells, "
        "one network-level test bench, three targets",
        ["records", "verdict"], rows))
    assert cosim_report.passed, cosim_report.summary()
    assert board_report.passed, board_report.summary()
    assert len(expected) == 2 * len(CONNECTIONS)  # two tariff intervals


@pytest.mark.parametrize("bug", ["swap_clp", "charge_off_by_one",
                                 "lost_tick"])
def test_e5_injected_bugs_caught_by_both_paths(bug, benchmark):
    workload = network_level_testbench()
    expected = two_interval_reference(workload, CONNECTIONS)

    def run_once():
        cosim_records = two_interval_cosim(workload, CONNECTIONS, bug=bug)
        board_records, _ = board_run(workload, bug=bug)
        return (verdict(expected, cosim_records, f"cosim-{bug}"),
                verdict(expected, board_records, f"board-{bug}"))

    cosim_report, board_report = benchmark.pedantic(run_once, rounds=1,
                                                    iterations=1)
    assert not cosim_report.passed, f"co-sim missed injected bug {bug}"
    assert not board_report.passed, f"board path missed bug {bug}"
