"""The process-wide shared compiled-cell-template cache."""

import pytest

from repro.atm import AtmCell
from repro.core import TimeBase
from repro.hdl import CycleEngine, Simulator
from repro.rtl import CellReceiver, CellSender
from repro.rtl.cell_stream import (clear_shared_templates,
                                   enable_shared_templates,
                                   shared_template_stats)

TIMEBASE = TimeBase.for_line_rate()
PERIOD = TIMEBASE.clock_period_ticks


@pytest.fixture()
def shared_cache():
    """Enable the shared cache for one test, restore the default
    (off, empty) afterwards — the cache is process-global state."""
    clear_shared_templates()
    enable_shared_templates()
    yield
    enable_shared_templates(False)
    clear_shared_templates()


def make_octets(vci, payload):
    """A 53-octet list (the CellSender wire unit)."""
    return list(AtmCell.with_payload(1, vci, payload).to_octets())


def _run_sender(cells):
    sim = Simulator(time_unit=TIMEBASE.tick_seconds)
    clk = sim.signal("clk", init="0")
    CycleEngine(sim, clk, period=PERIOD)
    sender = CellSender(sim, "tx", clk)
    received = []
    CellReceiver(sim, "rx", clk, sender.port,
                 on_cell=received.append)
    for cell in cells:
        sender.send(cell)
    sim.run(until=(len(cells) + 2) * 53 * PERIOD + 200)
    return sender, received


def test_disabled_by_default_publishes_nothing():
    clear_shared_templates()
    cells = [make_octets(100, [7])] * 2
    _run_sender(cells)
    stats = shared_template_stats()
    assert stats["enabled"] is False
    assert stats["entries"] == 0
    assert stats["hits"] == stats["misses"] == 0


def test_second_sender_adopts_published_templates(shared_cache):
    cells = [make_octets(100, [i]) for i in range(3)]
    first, got_first = _run_sender(cells)
    after_first = shared_template_stats()
    assert after_first["entries"] > 0
    assert after_first["hits"] == 0  # nothing to adopt yet
    assert first.template_misses > 0

    # a fresh simulator + sender (a new job in the same process)
    second, got_second = _run_sender(cells)
    after_second = shared_template_stats()
    assert after_second["hits"] > 0
    assert after_second["entries"] == after_first["entries"]
    # the adopted templates drive identical cells on the wire
    assert got_second == got_first == cells


def test_adoption_is_waveform_identical(shared_cache):
    """A sender driving adopted templates must produce the same cell
    stream as one that compiled them itself."""
    cells = [make_octets(200, [i, i + 1]) for i in range(4)]
    _, reference = _run_sender(cells)  # compiles + publishes
    _, adopted = _run_sender(cells)    # adopts everything
    assert adopted == reference == cells


def test_clear_resets_entries_and_counters(shared_cache):
    _run_sender([make_octets(100, [1])])
    assert shared_template_stats()["entries"] > 0
    clear_shared_templates()
    stats = shared_template_stats()
    assert stats["entries"] == 0
    assert stats["hits"] == stats["misses"] == 0
    assert stats["enabled"] is True  # clearing is not disabling
