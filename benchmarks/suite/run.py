"""Run the repo benchmark.

``python3 -m benchmarks.suite.run`` runs every workload: first the
end-to-end metrics with tracing off, then a separate traced pass at a
quarter of the size for the per-layer metrics.  It checks every output
against its reference model, prints every metric by name with its
unit, and exits non-zero when a cell failed.

``--workload NAME --seed N --seconds S --trace 0|1`` is the driver's
form: one workload, one pass, and the result as one JSON object on the
last line of standard output.

Every workload runs in fresh child interpreters, one after another and
never concurrently.  The end-to-end pass sets up three times — three
children — and reports the median set-up time; each child makes
``seconds / 9`` timed runs (at least one) of the fixed size, and each
throughput figure is the median over all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {metric["name"]: metric["unit"]
         for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
#: pinned result digests of the fixed sizes, for seeds 0 and 1
PINNED = json.loads(
    (Path(__file__).resolve().parent / "digests.json").read_text())

#: Fixed workload sizes, chosen so one timed run is about 3 s on the
#: 2-CPU reference host; never scaled at run time, which would change
#: the simulated statistics.
SIZES = {
    "cosim-rtl-cbr": 16_000,        # cells
    "cosim-rtl-bursty": 4_000,      # cells
    "cosim-rtl-observed": 16_000,   # cells
    "pure-rtl-bench": 2_000,        # cells per port
    "cosim-behav-mixed": 50_000,    # cells
    "shard-chain-behav": 80_000,    # cells per shard
}
#: set-ups per end-to-end pass (one child interpreter each)
CHILDREN = 3
#: what one timed run of a fixed size is designed to take
NOMINAL_RUN_S = 3.0
#: the traced pass runs at this fraction of the size
TRACE_DIVISOR = 4


class ChildFailed(RuntimeError):
    """A workload child exited without a result."""


def host_fingerprint() -> Dict[str, object]:
    """What the figures were measured on."""
    return {"usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform()}


def spawn_child(name: str, seed: int, size: int,
                *options: str) -> Dict[str, object]:
    """Run one child to completion; returns its result object."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    command = [sys.executable, "-m", "benchmarks.suite.child",
               "--workload", name, "--seed", str(seed),
               "--size", str(size),
               "--spawned-at", repr(time.monotonic()), *options]
    done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE)
    if done.returncode != 0:
        raise ChildFailed(f"{name}: child exited with code "
                          f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def summary(values: List[float], unit: str) -> Dict[str, object]:
    """Median with min, max and relative spread.  The spread is twice
    the median absolute deviation over the median — for well-behaved
    samples the distance between the quartiles — so that one disturbed
    run in three does not make a steady figure look unresolved."""
    median = statistics.median(values)
    deviation = statistics.median(abs(v - median) for v in values)
    return {"median": median, "min": min(values), "max": max(values),
            "spread": 2 * deviation / median if median else 0.0,
            "values": values,
            "unit": unit}


def end_to_end_pass(name: str, seed: int, size: int,
                    seconds: float) -> Dict[str, object]:
    """The untraced pass: CHILDREN set-ups, the median of all timed
    runs, and the correctness verdict."""
    repeats = max(1, round(seconds / (CHILDREN * NOMINAL_RUN_S)))
    children = [
        spawn_child(name, seed, size, "--repeats", str(repeats),
                    # a reference that needs a second run runs once
                    *(["--reference"] if index == 0 else []))
        for index in range(CHILDREN)]
    runs = [run for child in children for run in child["runs"]]
    attempted = sum(run["cells"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    digests = {child["digest"] for child in children}
    pinned = PINNED.get(name, {}).get(str(seed))
    if len(digests) > 1 or (size == SIZES[name] and pinned is not None
                            and digests != {pinned}):
        # a digest mismatch fails every cell
        failed = attempted
        for run in runs:
            run["failed"] = run["cells"]
    return {
        "attempted": attempted, "failed": failed,
        "digest": sorted(digests)[0],
        "end_to_end": {
            "cycles_per_s": summary(
                [run["clocks"] / run["wall_s"] for run in runs],
                UNITS["cycles_per_s"]),
            "cells_per_s": summary(
                [(run["cells"] - run["failed"]) / run["wall_s"]
                 for run in runs], UNITS["cells_per_s"]),
            "setup_s": summary(
                [child["setup_s"] for child in children],
                UNITS["setup_s"]),
            "peak_rss_mb": summary(
                [child["peak_rss_mb"] for child in children],
                UNITS["peak_rss_mb"]),
        }}


def per_layer_pass(name: str, seed: int, size: int) -> Dict[str, object]:
    """The traced pass: one child, every per-layer metric."""
    child = spawn_child(name, seed, size, "--trace")
    return {"attempted": sum(run["cells"] for run in child["runs"]),
            "failed": sum(run["failed"] for run in child["runs"]),
            "per_layer": {metric: {"value": value, "unit": UNITS[metric]}
                          for metric, value in child["per_layer"].items()}}


def derived(results: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """Cross-workload ratios; printed, never gated."""
    def cycles(name: str) -> Optional[float]:
        entry = results.get(name, {}).get("end_to_end")
        return entry["cycles_per_s"]["median"] if entry else None

    cbr, pure, observed = (cycles("cosim-rtl-cbr"),
                           cycles("pure-rtl-bench"),
                           cycles("cosim-rtl-observed"))
    ratios = {}
    if cbr and pure:
        ratios["e1.cosim_vs_pure_rtl"] = cbr / pure
    if cbr and observed:
        ratios["obs.observed_overhead"] = 1.0 - observed / cbr
    return ratios


def print_entry(name: str, entry: Dict[str, object]) -> None:
    """Every metric of one workload, by name, with its unit."""
    for metric, figure in entry.get("end_to_end", {}).items():
        print(f"{name:20s} {metric:42s} {figure['median']:16.6g} "
              f"{figure['unit']:6s} min {figure['min']:.6g} "
              f"max {figure['max']:.6g} "
              f"spread {100 * figure['spread']:.2f}% "
              f"n={len(figure['values'])}")
    for metric, figure in entry.get("per_layer", {}).items():
        print(f"{name:20s} {metric:42s} {figure['value']:16.6g} "
              f"{figure['unit']}")
    print(f"{name:20s} {'fail_share':42s} "
          f"{entry['failed'] / entry['attempted']:16.6g} "
          f"({entry['failed']} of {entry['attempted']} cells)",
          flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    """Run the workloads asked for; see the module docstring."""
    names = [workload["name"] for workload in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="timed seconds of the end-to-end pass")
    parser.add_argument("--trace", choices=("0", "1"),
                        help="0: end-to-end pass only; 1: traced pass "
                             "only (default: both)")
    parser.add_argument("--out", type=Path,
                        help="write the full result as JSON")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        parser.error(f"no program to measure: {ROOT / 'src' / 'repro'} "
                     "is missing")

    results: Dict[str, Dict[str, object]] = {}
    for name in ([args.workload] if args.workload else names):
        entry: Dict[str, object] = {"attempted": 0, "failed": 0}
        passes = []
        if args.trace != "1":
            passes.append(end_to_end_pass(name, args.seed, SIZES[name],
                                          args.seconds))
        if args.trace != "0":
            passes.append(per_layer_pass(
                name, args.seed, SIZES[name] // TRACE_DIVISOR))
        for result in passes:
            entry["attempted"] += result.pop("attempted")
            entry["failed"] += result.pop("failed")
            entry.update(result)
        results[name] = entry
        print_entry(name, entry)
    ratios = derived(results)
    for metric, value in ratios.items():
        print(f"{'derived':20s} {metric:42s} {value:16.6g} ratio")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"host": host_fingerprint(), "seed": args.seed,
             "seconds": args.seconds, "workloads": results,
             "derived": ratios}, indent=2) + "\n")
    failed = sum(entry["failed"] for entry in results.values())
    if args.workload and args.trace is not None:
        entry = results[args.workload]
        metrics = (entry["per_layer"] if args.trace == "1" else
                   {metric: {"value": figure["median"],
                             "unit": figure["unit"]}
                    for metric, figure in entry["end_to_end"].items()})
        print(json.dumps({"correct": failed == 0,
                          "attempted": entry["attempted"],
                          "failed": entry["failed"],
                          "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
