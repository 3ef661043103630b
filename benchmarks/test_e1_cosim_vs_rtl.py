"""E1 — co-simulation throughput vs a pure-RTL test bench (paper §2).

The paper's headline numbers: processing 10,000 ATM cells through a
switch of four port modules + one global control unit runs at about
1,300 clock cycles/second co-simulated, against about 300 clock
cycles/second for a pure RTL representation — a ~4.3x advantage for
the co-verification environment, because everything except the DUT
stays at the abstract level.

We reproduce the *shape*: the same cell workload runs (a) through the
co-verification setup (abstract switch + RTL accounting DUT via
CASTANET) and (b) through the fully-RTL bench (4 RTL port modules,
RTL stimulus senders and monitors, idle cells clocked at bit level).
The RTL bench is timed twice: compiled (the default) and with every
component on the event kernel, which is the paper's technology and so
the like-for-like baseline of its 4.3x.  A fourth row swaps the DUT of
(a) for its behavioural twin.
Reported metric: simulated DUT clock cycles per wall-clock second.
Absolute numbers depend on the host; the co-sim/event-RTL ratio should
land in the 2-10x band around the paper's 4.3x.
"""

import time

from repro.analysis import ExperimentResult, format_table

from .common import (build_cosim_accounting, build_pure_rtl_system,
                     run_cosim_accounting, save_table, scaled)

CELLS = scaled(160)


def _timed(run):
    """run() -> its stats plus wall time and clock cycles per second."""
    start = time.perf_counter()
    stats = run()
    wall = time.perf_counter() - start
    return dict(stats, wall_s=wall,
                clock_cycles_per_s=stats["hdl_clocks"] / wall)


def _measure_cosim(cells, level="rtl"):
    # observability off: the RTL bench it is compared with has none
    built = build_cosim_accounting(cells, observe=False, level=level)
    return _timed(lambda: run_cosim_accounting(*built))


def _measure_pure_rtl(cells, rtl_backend=None):
    sim, run = build_pure_rtl_system(cells // 4, rtl_backend=rtl_backend)
    return _timed(run)


def write_e1_table():
    """Measure the four E1 configurations and save the table; returns
    ``{case: measurement dict}``."""
    # 1/10-size warm-up: the first run of a process pays imports and
    # the sender's template compile, which would land on one row only
    _measure_cosim(max(8, CELLS // 10))
    _measure_pure_rtl(max(8, CELLS // 10))
    measured = {
        "co-simulation (CASTANET)": _measure_cosim(CELLS),
        "pure RTL (compiled)": _measure_pure_rtl(CELLS),
        # every component on the event kernel: the paper's technology,
        # hence the like-for-like baseline of its 4.3x
        "pure RTL (event backend)": _measure_pure_rtl(CELLS, "event"),
        # same scenario, DUT swapped to its zero-delta twin: no HDL
        # kernel and no synchroniser run
        "behavioural twin": _measure_cosim(CELLS, "behav"),
    }
    columns = ["cells", "hdl_clocks", "wall_s", "clock_cycles_per_s"]
    rows = [
        ExperimentResult(case, dict(
            {name: m[name] for name in columns},
            cells=m.get("dut_cells", m["cells"])))
        for case, m in measured.items()
    ]
    cosim_rate = measured["co-simulation (CASTANET)"]["clock_cycles_per_s"]
    for label, baseline in (
            ("speed-up vs compiled RTL", "pure RTL (compiled)"),
            ("speed-up vs event RTL (paper: ~4.3x)",
             "pure RTL (event backend)")):
        rows.append(ExperimentResult(label, {
            "clock_cycles_per_s":
                cosim_rate / measured[baseline]["clock_cycles_per_s"]}))
    save_table("e1_cosim_vs_rtl.txt", format_table(
        "E1: co-simulation vs pure-RTL throughput "
        f"({CELLS} cells, 25% load)", columns, rows))
    return measured


def test_e1_cosim_faster_than_pure_rtl(benchmark):
    measured = write_e1_table()
    cosim = measured["co-simulation (CASTANET)"]
    rtl_event = measured["pure RTL (event backend)"]

    # the paper's qualitative claim, like for like (event-driven RTL):
    # co-simulation is markedly faster.  The margin over compiled RTL
    # is the suite's e1.cosim_vs_pure_rtl, measured over 3-s runs.
    assert cosim["clock_cycles_per_s"] \
        > 1.5 * rtl_event["clock_cycles_per_s"], (
        f"co-sim {cosim['clock_cycles_per_s']:.0f} cyc/s vs "
        f"event-backend RTL {rtl_event['clock_cycles_per_s']:.0f} cyc/s")
    # all cells crossed every system, at either level and backend
    assert cosim["cells"] == measured["behavioural twin"]["cells"] \
        == CELLS
    assert rtl_event["dut_cells"] \
        == measured["pure RTL (compiled)"]["dut_cells"]

    # pytest-benchmark timing of the co-simulation path
    def run_once():
        env, dut, entity, reference = build_cosim_accounting(
            max(8, CELLS // 4))
        run_cosim_accounting(env, dut, entity, reference)

    benchmark.pedantic(run_once, rounds=1, iterations=1)


def test_e1_functional_equivalence_maintained(benchmark):
    """Throughput means nothing if the co-simulated DUT diverges: the
    records produced through the coupling must match the reference."""
    from repro.core import StreamComparator
    from .common import (collect_rtl_records, group_records,
                         reference_records)

    def run_once():
        env, dut, entity, reference = build_cosim_accounting(
            max(16, CELLS // 4))
        words = collect_rtl_records(env.hdl, env.clk, dut)
        run_cosim_accounting(env, dut, entity, reference)
        comparator = StreamComparator("e1", normalize="sorted")
        comparator.extend_reference(reference_records(reference))
        comparator.extend_observed(group_records(words))
        report = comparator.compare()
        assert report.passed, report.summary()
        return report

    report = benchmark.pedantic(run_once, rounds=1, iterations=1)
    assert report.matched == 4  # one record per registered connection
