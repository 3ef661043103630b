"""One workload in one fresh interpreter; started by ``run.py``.

Untraced (the end-to-end figures): import, one untimed warm-up run at
a tenth of the size, then ``--repeats`` timed runs of the fixed size.
``setup_s`` runs from the parent's ``--spawned-at`` stamp to the start
of the first timed region: interpreter start, ``import repro``, the
warm-up, the scenario build with its stimulus, worker spawn.

Traced (``--trace``, the per-layer figures): the same warm-up, one
untraced run, then one run with a span around every layer entry point,
both at the given size; their ratio is the tracer's overhead.

Prints one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from .tracer import Tracer
from .workloads import Outcome, build

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"

#: tracer layer -> metric, where it is not ``<layer>.self_s``
SPLIT_LAYERS = {"shard.codec.encode": "shard.codec.encode_self_s",
                "shard.codec.decode": "shard.codec.decode_self_s",
                "shard.transport.send": "shard.transport.send_self_s",
                # what is left of recv once decoding is taken out is
                # the wait for the worker: its compute and its wake-up
                "shard.transport.recv": "shard.transport.recv_wait_s"}


def per_layer_names() -> List[str]:
    """The per-layer metric names ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec["per_layer"]]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    reaped child (the shard workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def warm_up(name: str, size: int) -> None:
    """One untimed run at a tenth of the size.  It only has to make
    lazy set-up finish; the fixed seed keeps set-up time from varying
    with the traffic drawn."""
    build(name, 0, max(4, size // 10)).run()


def timed_repeats(name: str, seed: int, size: int, repeats: int,
                  spawned_at: float, reference: bool) -> Dict[str, object]:
    """Warm-up, then *repeats* timed runs; see the module docstring."""
    warm_up(name, size)
    runs = []
    digests = set()
    setup_s = None
    for _ in range(repeats):
        workload = build(name, seed, size)
        gc.collect()
        start, end = workload.run()
        if setup_s is None:
            setup_s = start - spawned_at
        outcome = workload.outcome()
        digests.add(outcome.digest)
        runs.append({"wall_s": end - start, "cells": outcome.cells,
                     "clocks": outcome.clocks, "failed": outcome.failed})
    # read before a reference run can raise it
    peak = peak_rss_mb()
    if reference:
        runs[-1]["failed"] += workload.reference_failures()
    if len(digests) > 1:
        # repeats of one seed disagree: nothing they produced counts
        for run in runs:
            run["failed"] = run["cells"]
    return {"setup_s": setup_s, "runs": runs, "digest": outcome.digest,
            "counts": outcome.counts, "peak_rss_mb": peak}


def layer_metrics(tracer: Tracer, outcome: Outcome, traced_wall: float,
                  call_wall: float, untraced_wall: float,
                  untraced_cells: int) -> Dict[str, float]:
    """Every declared per-layer metric; 0 where a layer does no work
    on this workload."""
    declared = per_layer_names()
    metrics = dict.fromkeys(declared, 0.0)
    self_s = tracer.self_seconds()
    for layer, seconds in self_s.items():
        metrics[SPLIT_LAYERS.get(layer, f"{layer}.self_s")] = seconds
    metrics.update(outcome.counts)
    metrics["atm.cells_built"] = tracer.calls("atm", "packet_factory")
    metrics["hdl.run_calls"] = tracer.calls("hdl")
    for per, layer, count in (
            ("netsim.us_per_event", "netsim", "netsim.events"),
            ("core.sync.us_per_window", "core.sync",
             "core.sync.windows_granted"),
            ("hdl.us_per_clock", "hdl", "hdl.clocks")):
        if metrics[count]:
            metrics[per] = 1e6 * self_s[layer] / metrics[count]
    if "shard.topology" in self_s and tracer.calls("shard.topology",
                                                   "start"):
        metrics["shard.topology.spawn_s"] = tracer.seconds(
            "shard.topology", "start")
        metrics["shard.topology.stimulus_s"] = (
            tracer.first_start("shard.topology", "start")
            - tracer.first_start("shard.topology", "run_topology"))
    metrics["trace.coverage"] = sum(self_s.values()) / call_wall
    metrics["trace.overhead"] = (
        (traced_wall / max(1, outcome.cells))
        / (untraced_wall / max(1, untraced_cells)) - 1.0)
    unknown = set(metrics) - set(declared)
    if unknown:
        raise KeyError(f"metrics BENCHMARK.json does not declare: "
                       f"{sorted(unknown)}")
    return metrics


def traced_pass(name: str, seed: int, size: int) -> Dict[str, object]:
    """One untraced and one traced run of the same inputs."""
    warm_up(name, size)
    plain = build(name, seed, size)
    start, end = plain.run()
    plain_outcome = plain.outcome()
    failed = plain_outcome.failed + plain.reference_failures()

    workload = build(name, seed, size)
    tracer = Tracer()
    workload.attach(tracer)
    gc.collect()
    try:
        entered = time.monotonic()
        t_start, t_end = workload.run()
        left = time.monotonic()
    finally:
        tracer.unwrap()
    tracer.require_calls()
    outcome = workload.outcome()
    failed += outcome.failed
    if outcome.digest != plain_outcome.digest:
        # tracing must not change a single modelled result
        failed = outcome.cells
    metrics = layer_metrics(tracer, outcome, t_end - t_start,
                            left - entered, end - start,
                            plain_outcome.cells)
    metrics.update(plain.extra_layer_metrics())
    tracer.write_chrome_trace(OUT_DIR / f"{name}.trace.json")
    return {"runs": [{"wall_s": end - start, "cells": outcome.cells,
                      "clocks": outcome.clocks,
                      "failed": failed}],
            "digest": outcome.digest, "per_layer": metrics,
            "spans": len(tracer.spans)}


def main(argv: Optional[List[str]] = None) -> int:
    """Run one workload as ``run.py`` asked; print the result."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.trace:
        result = traced_pass(args.workload, args.seed, args.size)
    else:
        result = timed_repeats(args.workload, args.seed, args.size,
                               args.repeats, args.spawned_at,
                               args.reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
