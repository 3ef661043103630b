#!/usr/bin/env python
"""The paper's case study: functional verification of an ATM
accounting unit (§4).

A bursty traffic mix (on-off voice-like + Poisson data-like sources)
is generated once at the network level and drives

* the charging algorithm's reference model, and
* the RTL accounting unit coupled through CASTANET.

Charging records of two tariff intervals are compared.  The script
then repeats the experiment with an injected RTL defect (CLP=1 cells
counted at the CLP=0 tariff) to show the environment *catching* a
realistic bug.

Run:  python examples/accounting_coverification.py
"""

from dataclasses import astuple

from repro.atm import AccountingUnit, AtmCell, Tariff
from repro.core import (CoVerificationEnvironment, StreamComparator,
                        TimeBase)
from repro.rtl import AccountingUnitRtl, RecordBusMonitor
from repro.traffic import OnOffSource, PoissonArrivals

TIMEBASE = TimeBase.for_line_rate()
CELL_TIME = TIMEBASE.cell_time_seconds
NUM_CELLS = 60

CONNECTIONS = [
    # (vpi, vci, units/cell, units/CLP1-cell, fixed units/interval)
    (1, 100, 2, 1, 5),   # premium CBR-like contract
    (1, 200, 3, 0, 0),   # volume-only contract
]


def build_workload():
    """One authored stimulus: (time, cell) list from the traffic
    library, alternating a bursty and a memoryless source."""
    bursty = OnOffSource(peak_period=CELL_TIME, mean_on=15 * CELL_TIME,
                        mean_off=30 * CELL_TIME, seed=1)
    smooth = PoissonArrivals(rate=0.25 / CELL_TIME, seed=2)
    cells, t1, t2 = [], 0.0, 0.0
    for i in range(NUM_CELLS):
        if i % 2:
            t2 += smooth.next_interarrival()
            cells.append((t2, AtmCell.with_payload(1, 200, [i % 256])))
        else:
            t1 += bursty.next_interarrival()
            cells.append((t1, AtmCell.with_payload(
                1, 100, [i % 256], clp=(i // 2) % 2)))
    cells.sort(key=lambda item: item[0])
    spaced, t_prev = [], 0.0
    for t, cell in cells:
        t = max(t, t_prev + CELL_TIME)
        spaced.append((t, cell))
        t_prev = t
    return spaced


def run_reference(workload):
    reference = AccountingUnit(drop_unknown=True)
    for vpi, vci, upc, upc1, fixed in CONNECTIONS:
        reference.register(vpi, vci, Tariff(units_per_cell=upc,
                                            units_per_cell_clp1=upc1,
                                            fixed_units=fixed))
    records = []
    split = len(workload) // 2
    for i, (_t, cell) in enumerate(workload):
        if i == split:
            records.extend(reference.close_interval())
        reference.cell_arrival(cell.vpi, cell.vci, clp=cell.clp)
    records.extend(reference.close_interval())
    return [astuple(record) for record in records]


def run_rtl(workload, bug=None):
    env = CoVerificationEnvironment(timebase=TIMEBASE)
    dut = AccountingUnitRtl(env.hdl, "accounting", env.clk, bug=bug)
    for vpi, vci, upc, upc1, fixed in CONNECTIONS:
        dut.register(vpi, vci, units_per_cell=upc,
                     units_per_cell_clp1=upc1, fixed_units=fixed)
    entity = env.add_dut(rx_port=dut.rx, tick_signal=dut.tariff_tick)
    monitor = RecordBusMonitor(env.hdl, "records", env.clk, dut)

    split = len(workload) // 2
    for i, (t, cell) in enumerate(workload):
        if i == split:
            entity.send_tariff_tick((workload[i - 1][0] + t) / 2.0)
        entity.send_cell(t, cell)
    last = workload[-1][0]
    entity.send_tariff_tick(last + 2 * CELL_TIME)
    entity.finish(last + 3 * CELL_TIME)
    env.hdl.run(until=env.hdl.now + 64 * TIMEBASE.clock_period_ticks)
    return monitor.records()


def compare(expected, observed, label):
    comparator = StreamComparator(label, normalize="sorted")
    comparator.extend_reference(expected)
    comparator.extend_observed(observed)
    report = comparator.compare()
    print(report.summary())
    for mismatch in report.mismatches[:3]:
        print(f"   expected {mismatch.expected}")
        print(f"   observed {mismatch.observed}")
    return report


def main() -> int:
    workload = build_workload()
    print(f"authored one network-level test bench: {len(workload)} cells, "
          "2 tariff intervals\n")
    expected = run_reference(workload)

    print("-- correct RTL through CASTANET " + "-" * 30)
    good = compare(expected, run_rtl(workload), "accounting-rtl")

    print("\n-- RTL with injected CLP-swap defect " + "-" * 25)
    bad = compare(expected, run_rtl(workload, bug="swap_clp"),
                  "accounting-rtl-buggy")

    ok = good.passed and not bad.passed
    print("\ncase study verdict:",
          "environment verifies AND discriminates" if ok else "PROBLEM")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
