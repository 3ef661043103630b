"""Bulk-vs-generator trace equivalence.

The bulk waveform playback of :class:`CellSender` must be
**trace-identical** to the behavioural generator it replaced, kept as
:class:`repro.reference.GeneratorCellSender`: identical cell sequences
driven through both must produce equivalent VCD waveforms
(``compare_waveforms`` — final value per signal per timestamp) and the
same received cells, on both the event-driven clock and the
:class:`CycleEngine`.
"""

import pytest

from repro.hdl import CycleEngine, Simulator
from repro.reference import (GeneratorCellSender, VcdData, VcdWriter,
                             compare_waveforms)
from repro.rtl import CellReceiver, CellSender

PERIOD = 10
CLOCKINGS = ("event", "cycle")
SENDERS = {"generator": GeneratorCellSender, "bulk": CellSender}


def make_sim(clocking):
    sim = Simulator()
    clk = sim.signal("clk", init="0")
    if clocking == "event":
        sim.add_clock(clk, period=PERIOD)
    else:
        CycleEngine(sim, clk, period=PERIOD)
    return sim, clk


def make_cell(seed):
    return [(seed * 7 + k) % 256 for k in range(53)]


def run_scenario(tmp_path, tag, clocking, sender_kind, gap_octets=0,
                 cells=(), midrun_cells=(), until=4000):
    """Drive *cells* (and *midrun_cells* from half-time) through a
    sender/receiver pair, dumping the stream port to VCD."""
    sim, clk = make_sim(clocking)
    sender = SENDERS[sender_kind](sim, "tx", clk, gap_octets=gap_octets)
    received = []
    CellReceiver(sim, "rx", clk, sender.port,
                 on_cell=received.append)
    path = tmp_path / f"{tag}.vcd"
    with VcdWriter(sim, path, [clk] + sender.port.signals()):
        for cell in cells:
            sender.send(cell)
        sim.run(until=until // 2)
        for cell in midrun_cells:
            sender.send(cell)
        sim.run(until=until)
    assert sender.cells_sent == len(received)
    return path, received


def assert_equivalent(tmp_path, clocking, **kwargs):
    runs = {}
    for sender_kind in SENDERS:
        runs[sender_kind] = run_scenario(
            tmp_path, f"{clocking}_{sender_kind}", clocking, sender_kind,
            **kwargs)
    gen_path, gen_cells = runs["generator"]
    bulk_path, bulk_cells = runs["bulk"]
    assert bulk_cells == gen_cells
    diffs = compare_waveforms(VcdData.parse(gen_path),
                              VcdData.parse(bulk_path))
    assert diffs == [], f"bulk trace diverged: {diffs[:5]}"
    return runs


@pytest.mark.parametrize("clocking", CLOCKINGS)
def test_back_to_back_cells_equivalent(tmp_path, clocking):
    cells = [make_cell(i) for i in range(3)]
    runs = assert_equivalent(tmp_path, clocking, cells=cells)
    assert len(runs["bulk"][1]) == 3


@pytest.mark.parametrize("clocking", CLOCKINGS)
def test_gap_octets_equivalent(tmp_path, clocking):
    cells = [make_cell(i) for i in range(3)]
    runs = assert_equivalent(tmp_path, clocking, gap_octets=4,
                             cells=cells)
    assert len(runs["bulk"][1]) == 3


@pytest.mark.parametrize("clocking", CLOCKINGS)
def test_idle_only_equivalent(tmp_path, clocking):
    runs = assert_equivalent(tmp_path, clocking, cells=())
    assert runs["bulk"][1] == []


@pytest.mark.parametrize("clocking", CLOCKINGS)
def test_midrun_sends_equivalent(tmp_path, clocking):
    initial = [make_cell(i) for i in range(2)]
    later = [make_cell(i + 10) for i in range(2)]
    runs = assert_equivalent(tmp_path, clocking, cells=initial,
                             midrun_cells=later)
    assert len(runs["bulk"][1]) == 4


@pytest.mark.parametrize("clocking", CLOCKINGS)
def test_repeated_cell_uses_template_cache(tmp_path, clocking):
    sim, clk = make_sim(clocking)
    sender = CellSender(sim, "tx", clk)
    received = []
    CellReceiver(sim, "rx", clk, sender.port, on_cell=received.append)
    cell = make_cell(5)
    for _ in range(4):
        sender.send(cell)
    sim.run(until=4 * 53 * PERIOD + 200)
    assert received == [cell] * 4
    # first cell compiles with its initial phase gap, chained repeats
    # share one steady-state template
    assert sender.template_misses == 2
    assert sender.template_hits == 2
    assert sender.cells_sent == 4


def test_bulk_identical_across_clockings(tmp_path):
    """The two clocking schemes must agree on the bulk trace too."""
    cells = [make_cell(i) for i in range(3)]
    paths = {}
    for clocking in CLOCKINGS:
        paths[clocking], received = run_scenario(
            tmp_path, f"x_{clocking}", clocking, "bulk", cells=cells)
        assert len(received) == 3
    diffs = compare_waveforms(VcdData.parse(paths["event"]),
                              VcdData.parse(paths["cycle"]))
    assert diffs == [], f"clocking schemes diverged: {diffs[:5]}"
