"""Compare two result files written by ``run.py --out``.

``python3 -m benchmarks.suite.compare A.json B.json`` prints one row
per (workload, end-to-end metric): both medians with their spreads,
the change from A to B, the bound from ``BENCHMARK.json`` and a
verdict:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — no regression, but a spread is wider than the bound,
  so the bound cannot be resolved;
* ``improved`` — B's median is better than A's by more than the bound;
* ``unchanged`` — otherwise: the change is inside the bound, which is
  the resolution this benchmark claims.

Exits non-zero on any ``regressed`` row or any rise in the failed
share of a workload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[2]


def verdict(change: float, noise: float, better: str,
            bound: float) -> str:
    """Classify a relative *change* of the median, given the wider of
    the two spreads as *noise* (see module docstring)."""
    worse = -change if better == "higher" else change
    if worse > bound:
        return "regressed"
    if noise > bound:
        return "unresolved"
    if -worse > bound:
        return "improved"
    return "unchanged"


def main(argv: Optional[List[str]] = None) -> int:
    """Print the comparison table; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first = json.loads(args.a.read_text())
    second = json.loads(args.b.read_text())
    if first["host"] != second["host"]:
        print(f"note: different hosts: {first['host']} vs "
              f"{second['host']}")

    bad = False
    print(f"{'workload':20s} {'metric':14s} {'A median':>12s} "
          f"{'spread':>7s} {'B median':>12s} {'spread':>7s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for name, a_entry in first["workloads"].items():
        b_entry = second["workloads"].get(name)
        if b_entry is None:
            continue
        for metric in spec["end_to_end"]:
            a = a_entry.get("end_to_end", {}).get(metric["name"])
            b = b_entry.get("end_to_end", {}).get(metric["name"])
            if a is None or b is None:
                continue
            change = (b["median"] - a["median"]) / a["median"]
            outcome = verdict(change, max(a["spread"], b["spread"]),
                              metric["better"], metric["bound"])
            bad |= outcome == "regressed"
            print(f"{name:20s} {metric['name']:14s} "
                  f"{a['median']:12.5g} {100 * a['spread']:6.2f}% "
                  f"{b['median']:12.5g} {100 * b['spread']:6.2f}% "
                  f"{100 * change:+7.2f}% "
                  f"{100 * metric['bound']:5.1f}%  {outcome}")
        a_share = a_entry["failed"] / a_entry["attempted"]
        b_share = b_entry["failed"] / b_entry["attempted"]
        if b_share > a_share:
            bad = True
            print(f"{name:20s} fail_share rose from {a_share:.6g} to "
                  f"{b_share:.6g}")
        if first["seed"] == second["seed"] \
                and a_entry.get("digest") != b_entry.get("digest"):
            print(f"{name:20s} result digests differ for one seed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
