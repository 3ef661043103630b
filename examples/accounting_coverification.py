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

from repro.atm import AtmCell
from repro.core import StreamComparator, TimeBase
from repro.scenario import two_interval_cosim, two_interval_reference
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
    expected = two_interval_reference(workload, CONNECTIONS)

    print("-- correct RTL through CASTANET " + "-" * 30)
    good = compare(expected, two_interval_cosim(workload, CONNECTIONS),
                   "accounting-rtl")

    print("\n-- RTL with injected CLP-swap defect " + "-" * 25)
    bad = compare(expected,
                  two_interval_cosim(workload, CONNECTIONS, bug="swap_clp"),
                  "accounting-rtl-buggy")

    ok = good.passed and not bad.passed
    print("\ncase study verdict:",
          "environment verifies AND discriminates" if ok else "PROBLEM")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
