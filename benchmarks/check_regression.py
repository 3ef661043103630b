"""Benchmark regression guard — fails CI on a large perf drop.

Reads the *committed* ``BENCH_kernel.json`` / ``BENCH_e1.json`` /
``BENCH_obs.json`` / ``BENCH_shard.json`` baselines at the repo root
(before they get overwritten), re-runs the benchmarks fresh, writes
the new artifacts, and compares the throughput figures (simulated DUT
clock cycles per wall second):

* kernel: event-driven and cycle-engine clocking of the port-module
  bench;
* e1: co-simulation and pure-RTL throughput of the headline workload;
* obs: the same workload with metrics + sampled cell provenance +
  profiling on, plus the chained two-shard topology with distributed
  telemetry on/off — both overhead gates (``REPRO_OBS_BUDGET``,
  ``REPRO_OBS_SHARD_BUDGET``) and the telemetry-on digest check are
  enforced here too, not just by ``benchmarks/bench_obs.py``;
* shard: local vs one- vs two-process sharded topologies, plus the
  host-aware 2-vs-1 shard scaling gate (``REPRO_SHARD_SCALING_MIN``,
  default 1.5, on hosts with >= 3 usable cores;
  ``REPRO_SHARD_SCALING_MIN_SERIAL``, default 0.8, elsewhere — see
  ``benchmarks/bench_shard.py`` for why the bar is host-aware) and,
  at full scale, the transport-overhead ceiling
  (``REPRO_SHARD_OVERHEAD_MAX``, default 0.25: the one-worker run may
  cost at most 25 % over the in-process reference).

A metric more than ``REPRO_BENCH_TOLERANCE`` (default 0.30, i.e. 30 %)
below its baseline fails the run with exit code 1.  The generous
default absorbs hardware differences between the machine that
committed the baseline and the CI runner; throughput is roughly
scale-independent, so smoke scales compare against full-scale
baselines — except the shard *transport* rows, whose per-frame fixed
costs make the absolute figure scale-dependent (they are guarded only
at full scale; the scale-free shard guards always run).

Run from the repo root::

    PYTHONPATH=src python benchmarks/check_regression.py
"""

import json
import os
import sys
from pathlib import Path

if __package__ in (None, ""):  # script mode
    sys.path.insert(0, str(Path(__file__).parent))
    from bench_kernel import bench_e1, bench_kernel
    from bench_obs import bench_obs
    from bench_shard import bench_shard
    from common import save_bench_json, scale
else:
    from .bench_kernel import bench_e1, bench_kernel
    from .bench_obs import bench_obs
    from .bench_shard import bench_shard
    from .common import save_bench_json, scale

REPO_ROOT = Path(__file__).parent.parent

#: (artifact, human label, key path to the guarded throughput figure)
CHECKS = [
    ("kernel", "kernel event-driven", ("event_driven", "cycles_per_s")),
    ("kernel", "kernel cycle-engine", ("cycle_engine", "cycles_per_s")),
    ("kernel", "kernel event backend", ("event_backend",
                                        "cycles_per_s")),
    ("e1", "e1 co-simulation", ("cosim", "cycles_per_s")),
    ("e1", "e1 pure RTL", ("pure_rtl", "cycles_per_s")),
    ("e1", "e1 pure RTL (event)", ("pure_rtl_event", "cycles_per_s")),
    ("e1", "e1 behavioural", ("behav", "cycles_per_s")),
    ("obs", "e1 observed (sampled)", ("observed", "cycles_per_s")),
    ("shard", "shard local reference", ("local", "cycles_per_s")),
]

#: shard transport rows carry real fixed per-frame costs, so their
#: absolute throughput is NOT scale-independent: at smoke scale
#: (REPRO_BENCH_SCALE < 1) a quarter of the cells amortise the same
#: framing overhead and the figure legitimately drops ~30%.  They are
#: compared against the committed full-scale baseline only at full
#: scale; the scale-free guards (local reference row above and the
#: 2-vs-1 scaling floor) run at every scale.
FULL_SCALE_CHECKS = [
    ("shard", "shard 1-process", ("one_shard", "cycles_per_s")),
    ("shard", "shard 2-process", ("two_shard", "cycles_per_s")),
    ("obs", "obs sharded observed", ("sharded_observed",
                                     "cycles_per_s")),
]


def _dig(payload, keys):
    for key in keys:
        if not isinstance(payload, dict) or key not in payload:
            return None
        payload = payload[key]
    return payload


def main() -> int:
    tolerance = float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.30"))

    # baselines first: the fresh run overwrites the artifacts in place
    baselines = {}
    for name in ("kernel", "e1", "obs", "shard"):
        path = REPO_ROOT / f"BENCH_{name}.json"
        if path.is_file():
            baselines[name] = json.loads(path.read_text())

    print(f"benchmark regression guard "
          f"(tolerance {tolerance:.0%}, REPRO_BENCH_SCALE={scale():g})")
    fresh = {"kernel": bench_kernel(), "e1": bench_e1(),
             "obs": bench_obs(), "shard": bench_shard()}
    for name, payload in fresh.items():
        save_bench_json(name, payload)

    # compiled-backend guards (independent of committed baselines):
    # the default configs must actually levelize components, and
    # compiled must not run slower than the event backend.
    compiled = _dig(fresh["kernel"],
                    ("cycle_engine", "compiled_components"))
    if not compiled:
        print("FAIL: cycle-engine bench ran no compiled components "
              "(every compile fell back to the event kernel)")
        return 1
    ratio = _dig(fresh["e1"], ("compiled_vs_event",))
    if ratio is not None and ratio < 1.0:
        print(f"FAIL: compiled backend slower than the event backend "
              f"({ratio:.2f}x) on the e1 pure-RTL bench")
        return 1
    # abstraction guard: the zero-delta behavioural twin skips the
    # HDL kernel and synchroniser entirely, so falling below compiled
    # co-simulation throughput means the swap machinery regressed
    ratio = _dig(fresh["e1"], ("behav_vs_compiled",))
    if ratio is not None and ratio < 1.0:
        print(f"FAIL: behavioural twin slower than compiled "
              f"co-simulation ({ratio:.2f}x) on the e1 workload")
        return 1
    # sharded-topology scaling guard (independent of committed
    # baselines): 2 shards vs 1 must clear the host-class floor —
    # >= REPRO_SHARD_SCALING_MIN (1.5) where a coordinator and two
    # workers can truly run in parallel, >= the serial floor (0.8,
    # catches protocol serialisation bugs) on smaller hosts.
    shard = fresh["shard"]
    if not shard.get("digests_match", True):
        print("FAIL: sharded output digests diverge from the local "
              "reference across transports")
        return 1
    floor = shard["scaling_floor"]
    kind = ("parallel" if shard["parallel_capable"]
            else f"serial, {shard['cpus']} cpu(s)")
    if shard["scaling"] < floor:
        print(f"FAIL: 2-shard scaling {shard['scaling']:.2f}x below "
              f"the {floor:g}x floor ({kind} host)")
        return 1
    print(f"2-shard scaling {shard['scaling']:.2f}x meets the "
          f"{floor:g}x floor ({kind} host)")
    # transport-overhead guard: shipping the op stream to one worker
    # process must stay cheap relative to the in-process reference.
    # The ratio is scale-dependent (fewer cells amortise the same
    # fixed per-frame cost), so like the transport throughput rows it
    # is enforced at full scale only.
    overhead_max = float(os.environ.get("REPRO_SHARD_OVERHEAD_MAX",
                                        "0.25"))
    overhead = shard["transport_overhead"]
    if scale() >= 1.0:
        if overhead > overhead_max:
            print(f"FAIL: shard transport overhead {overhead:+.1%} "
                  f"above the {overhead_max:.0%} ceiling "
                  f"(REPRO_SHARD_OVERHEAD_MAX)")
            return 1
        print(f"shard transport overhead {overhead:+.1%} within the "
              f"{overhead_max:.0%} ceiling")
    else:
        print(f"  (smoke scale: transport overhead {overhead:+.1%} "
              f"recorded, ceiling not enforced)")
    # observability overhead guards (independent of committed
    # baselines): calling bench_obs() directly bypasses its __main__
    # gating, so the budgets are re-enforced here — the local observed
    # arm and, alongside it, the sharded observed arm introduced with
    # distributed telemetry.
    obs = fresh["obs"]
    if not obs.get("sharded_digests_match", True):
        print("FAIL: telemetry-on sharded digest diverges from the "
              "telemetry-off run")
        return 1
    for overhead_key, budget_key, label in (
            ("observed_overhead", "budget", "e1 observed"),
            ("sharded_overhead", "shard_budget", "sharded observed")):
        overhead = obs[overhead_key]
        budget = obs[budget_key]
        if overhead > budget:
            print(f"FAIL: {label} overhead {overhead:+.1%} exceeds "
                  f"the {budget:.0%} observability budget")
            return 1
        print(f"{label} overhead {overhead:+.1%} within the "
              f"{budget:.0%} budget")

    if not baselines:
        print("no committed baselines found — artifacts written, "
              "nothing to compare")
        return 0

    checks = list(CHECKS)
    if scale() >= 1.0:
        checks += FULL_SCALE_CHECKS
    else:
        skipped = ", ".join(label for _, label, _ in FULL_SCALE_CHECKS)
        print(f"  (smoke scale: skipping scale-dependent rows: "
              f"{skipped})")
    failures = []
    for name, label, keys in checks:
        old = _dig(baselines.get(name, {}), keys)
        new = _dig(fresh[name], keys)
        if old is None or new is None or old <= 0:
            print(f"  {label:<22} baseline missing — skipped")
            continue
        ratio = new / old
        verdict = "ok"
        if ratio < 1.0 - tolerance:
            verdict = "REGRESSION"
            failures.append(label)
        print(f"  {label:<22} {old:>10.0f} -> {new:>10.0f} cyc/s "
              f"({ratio:>6.2f}x)  {verdict}")

    if failures:
        print(f"FAIL: {len(failures)} metric(s) regressed more than "
              f"{tolerance:.0%}: {', '.join(failures)}")
        return 1
    print("all guarded metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
