"""Command-line interface: ``python -m repro``.

Small operational conveniences for exploring the reproduction:

* ``inventory`` — the package map (what substitutes what);
* ``examples`` — list runnable example scripts;
* ``example NAME`` — run one example;
* ``results`` — print the experiment tables of the last benchmark run;
* ``stats`` — run the observed E1 scenario and report the
  co-simulation metrics (sync windows, null messages, lag histogram,
  kernel counters, per-cell and per-hop latency), exporting JSON
  to ``--json PATH``; ``stats --service
  HOST:PORT`` instead dials a running job service and prints its live
  STATS introspection (queue depth, per-worker counters, merged
  completed-job telemetry);
* ``trace run`` — run the observed E1 scenario with full causal
  tracing and write the JSONL decision trace (optionally a
  Chrome/Perfetto trace too);
* ``trace export`` — convert an existing JSONL trace into a
  ``chrome://tracing``/Perfetto-loadable JSON;
* ``sweep`` — fan a declarative scenario matrix (traffic model ×
  port count × seed × sync mode × abstraction level) out over worker
  processes and aggregate the results into a human table plus,
  with ``--json PATH``, one payload (see ``docs/api/sweep.md``);
* ``equiv`` — replay identical seeded cell streams through the RTL
  designs and their behavioural twins and diff the contract surface
  (output cells, records, policing verdicts, counters); exit 1 on
  any divergence (see ``docs/api/behav.md``);
* ``shard`` — run a sharded multi-switch topology (one worker process
  per DUT shard, coupled over pipes or sockets by the conservative
  protocol); ``--mode both`` additionally replays the identical op
  stream in-process and diffs the output digests; ``--observe`` and
  ``--trace-dir`` turn on distributed telemetry — coordinator-stamped
  trace ids, per-shard span streams, merged coverage counters (see
  ``docs/api/shard.md``);
* ``serve`` — start the persistent scenario job service: a worker
  pool that outlives individual jobs (sharing compiled cell
  templates across them) behind a JSON-lines TCP endpoint;
  ``serve --status HOST:PORT`` dials a running service and prints
  its live STATS introspection instead of binding.
"""

from __future__ import annotations

import argparse
import importlib
import json
import runpy
import sys
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["main"]

_SUBPACKAGES = [
    ("netsim", "OPNET-equivalent discrete-event network simulator"),
    ("traffic", "traffic model library (CBR/Poisson/on-off/MMPP/MPEG)"),
    ("atm", "ATM model suite (cells, switching, policing, accounting)"),
    ("hdl", "VSS-equivalent event-driven HDL simulation kernel"),
    ("rtl", "RTL device-under-test designs"),
    ("behav", "behavioural DUT twins + cross-level equivalence"),
    ("board", "RAVEN-equivalent hardware test board model"),
    ("core", "CASTANET: coupling, sync protocol, interfaces, compare"),
    ("obs", "observability: metrics registry, decision traces"),
    ("sweep", "parallel scenario-matrix sweep runner"),
    ("shard", "sharded multi-switch topologies + job service"),
    ("analysis", "result collection and report rendering"),
]


def _repo_root() -> Path:
    return Path(__file__).resolve().parent.parent.parent


def _examples_dir() -> Path:
    return _repo_root() / "examples"


def _results_dir() -> Path:
    return _repo_root() / "benchmarks" / "results"


def _write_json(path: Optional[str], payload: Dict[str, object]) -> None:
    """Write *payload* to the ``--json`` path; nothing without one."""
    if path:
        Path(path).write_text(json.dumps(payload, indent=2,
                                         sort_keys=True) + "\n")
        print(f"\nwrote {path}")


def _cmd_inventory(_args: argparse.Namespace) -> int:
    print("repro — CASTANET reproduction (DATE 1998)\n")
    for name, blurb in _SUBPACKAGES:
        module = importlib.import_module(f"repro.{name}")
        exported = len(getattr(module, "__all__", []))
        print(f"  repro.{name:<10} {blurb}  [{exported} exports]")
    return 0


def _list_examples() -> List[Path]:
    directory = _examples_dir()
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*.py"))


def _cmd_examples(_args: argparse.Namespace) -> int:
    scripts = _list_examples()
    if not scripts:
        print("no examples directory found")
        return 1
    for script in scripts:
        doc = ""
        for line in script.read_text().splitlines():
            stripped = line.strip().strip('"').strip()
            if stripped and not stripped.startswith(("#", "!")):
                doc = stripped
                break
        print(f"  {script.stem:<28} {doc}")
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    target = _examples_dir() / f"{args.name}.py"
    if not target.is_file():
        known = ", ".join(p.stem for p in _list_examples())
        print(f"unknown example {args.name!r}; known: {known}",
              file=sys.stderr)
        return 2
    try:
        runpy.run_path(str(target), run_name="__main__")
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


def _cmd_results(_args: argparse.Namespace) -> int:
    directory = _results_dir()
    tables = sorted(directory.glob("*.txt")) if directory.is_dir() \
        else []
    if not tables:
        print("no benchmark results found — run:\n"
              "  pytest benchmarks/ --benchmark-only")
        return 1
    for table in tables:
        print(table.read_text().rstrip())
        print()
    return 0


def _format_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == 0.0:
        return "0"
    for unit, scale in (("s", 1.0), ("ms", 1e-3), ("us", 1e-6),
                        ("ns", 1e-9)):
        if abs(value) >= scale:
            return f"{value / scale:.3g} {unit}"
    return f"{value:.3g} s"


def _print_histogram(label: str, hist: Dict[str, object]) -> None:
    print(f"  {label}: n={hist['count']}"
          f"  mean={_format_seconds(hist['mean'])}"
          f"  p50={_format_seconds(hist['p50'])}"
          f"  p99={_format_seconds(hist['p99'])}"
          f"  max={_format_seconds(hist['max'])}")
    for bucket in hist["buckets"]:
        le = bucket["le"]
        bound = "+inf" if le == "inf" else _format_seconds(le)
        print(f"      <= {bound:<8} {bucket['count']}")


#: provenance hop-pair metric -> human row label for the stats table
_HOP_LABELS = (
    ("prov.hop_s.source_to_post", "source -> sync post"),
    ("prov.hop_s.post_to_release", "sync queue wait"),
    ("prov.hop_s.release_to_ingress", "sync -> DUT ingress"),
    ("prov.hop_s.ingress_to_dut_out", "DUT processing"),
    ("prov.hop_s.dut_out_to_sink", "DUT -> sink"),
    ("prov.hop_s.release_to_sink", "switch -> sink"),
)


def _print_hop_table(histograms: Dict[str, Dict[str, object]]) -> None:
    """The per-hop latency summary derived from provenance spans."""
    rows = [(label, histograms[name])
            for name, label in _HOP_LABELS if name in histograms]
    covered = {name for name, _ in _HOP_LABELS}
    rows.extend((name[len("prov.hop_s."):], hist)
                for name, hist in sorted(histograms.items())
                if name.startswith("prov.hop_s.")
                and name not in covered)
    if not rows:
        return
    print("\ncell journey (per-hop latency):")
    print(f"  {'hop':<22} {'n':>5} {'mean':>9} {'p50':>9} "
          f"{'p99':>9} {'max':>9}")
    for label, hist in rows:
        print(f"  {label:<22} {hist['count']:>5} "
              f"{_format_seconds(hist['mean']):>9} "
              f"{_format_seconds(hist['p50']):>9} "
              f"{_format_seconds(hist['p99']):>9} "
              f"{_format_seconds(hist['max']):>9}")


def _parse_endpoint(value: str) -> tuple:
    """Parse a ``HOST:PORT`` CLI value (host defaults to loopback)."""
    host, _, port = value.rpartition(":")
    return (host or "127.0.0.1", int(port))


def _print_service_stats(stats: Dict[str, object]) -> None:
    """Render one STATS introspection payload from a running job
    service (the ``{"op": "stats"}`` reply)."""
    running = stats["running"]
    suffix = f" ({', '.join(running)})" if running else ""
    print(f"service: queue depth {stats['queue_depth']}, "
          f"{len(running)} running job(s){suffix}")
    service = stats["service"]
    print(f"  jobs: {service['submitted']} submitted, "
          f"{service['completed']} done, "
          f"{service['errors']} error(s), "
          f"{service['crashes']} crash(es), "
          f"{service['timeouts']} timeout(s), "
          f"{service['retries']} retried")
    for worker in stats["workers"]:
        counters = worker["counters"]
        state = ("busy" if worker["busy"]
                 else "idle" if worker["alive"] else "dead")
        job = f" on {worker['job']}" if worker["job"] else ""
        print(f"  {worker['name']:<10} {state}{job} — "
              f"{counters['jobs']} job(s) ({counters['ok']} ok, "
              f"{counters['errors']} error(s)), "
              f"{counters['crashes']} crash(es), "
              f"{counters['timeouts']} timeout(s), "
              f"{counters['retries']} retried")
    telemetry = stats["telemetry"]
    print(f"  telemetry: {telemetry['jobs']} completed job(s), "
          f"{telemetry['trace_records']} trace record(s)")
    if telemetry.get("latency"):
        _print_histogram("ingress latency (merged)",
                         telemetry["latency"])
    sync = telemetry.get("sync") or {}
    if sync:
        print(f"  sync (merged): {sync.get('messages_posted', 0)} "
              f"posts, {sync.get('null_messages', 0)} nulls, "
              f"{sync.get('windows_granted', 0)} windows")
    provenance = telemetry.get("provenance")
    if provenance:
        print(f"  provenance (merged): "
              f"{provenance.get('cells_sampled', 0)}"
              f"/{provenance.get('cells_seen', 0)} cells, "
              f"{provenance.get('spans_recorded', 0)} spans")


def _service_stats(endpoint: str) -> int:
    """Dial a running job service and print its STATS payload."""
    from repro.shard import ServeClient

    try:
        with ServeClient(_parse_endpoint(endpoint)) as client:
            payload = client.stats()
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"cannot reach service at {endpoint}: {exc}",
              file=sys.stderr)
        return 2
    _print_service_stats(payload)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.service:
        # Live introspection of a running job service — no scenario
        # run, no JSON report.
        return _service_stats(args.service)
    # Lazy import: the scenario pulls in the whole stack, and
    # repro.obs deliberately does not import it (repro.core imports
    # repro.obs — the reverse edge would be circular).
    from repro.obs.scenario import run_observed_e1

    report = run_observed_e1(cells=args.cells, load=args.load,
                             lockstep=args.lockstep, trace=args.trace,
                             sample=args.sample, profile=args.profile)
    workload = report["workload"]
    print(f"observed E1 scenario — {workload['cells']} cells, "
          f"load {workload['load']}, "
          f"{'lockstep' if args.lockstep else 'conservative'} sync")
    print(f"  {workload['hdl_clocks']} DUT clocks in "
          f"{workload['wall_s']:.3f} s wall "
          f"({workload['cycles_per_s']:,.0f} cycles/s)")

    print("\nsynchronisation:")
    for entity in report["entities"]:
        sync = entity.get("sync")
        if not sync:
            # Behavioural entities have no synchroniser to report.
            print(f"  level {entity.get('level', '?')} entity — "
                  "no sync protocol")
            continue
        print(f"  windows granted     {sync['windows_granted']}")
        print(f"  null messages       {sync['null_messages']}")
        print(f"  null msgs coalesced "
              f"{sync['null_messages_coalesced']}")
        print(f"  stale advances      {sync['stale_advances']}")
        print(f"  messages posted     {sync['messages_posted']}")
        print(f"  messages released   {sync['messages_released']}")
        print(f"  drains              {sync['drains']}")
        print(f"  max lag             "
              f"{_format_seconds(sync['max_lag_seconds'])}")

    print("\nkernels:")
    hdl = report["hdl_kernel"]
    net = report["netsim_kernel"]
    print(f"  hdl: {hdl['events_executed']} events, "
          f"{hdl['delta_cycles']} delta cycles, "
          f"{hdl['signal_events']} signal events, "
          f"{hdl['process_runs']} process runs")
    print(f"  netsim: {net['executed_events']} events, "
          f"{net['time_advances']} time advances, "
          f"peak queue {net['peak_pending_events']}")

    instruments = report.get("instruments", {})
    histograms = instruments.get("histograms", {})
    print("\ndistributions:")
    for name in ("sync.lag_s", "sync.queue_wait_s.cell",
                 "sync.queue_wait_s.tariff_tick",
                 "cosim.cell_ingress_latency_s",
                 "cosim.cell_e2e_latency_s"):
        if name in histograms:
            _print_histogram(name, histograms[name])
    unmatched = instruments.get("counters", {}).get(
        "cosim.latency_unmatched", 0)
    if unmatched:
        print(f"  WARNING: {unmatched} latency sample(s) unmatched")

    _print_hop_table(histograms)
    provenance = report.get("provenance")
    if provenance is not None:
        print(f"  cells traced: {provenance['cells_sampled']}"
              f"/{provenance['cells_seen']} "
              f"(1 in {provenance['sample']}), "
              f"{provenance['spans_recorded']} spans")
    if args.profile:
        print("\nhot-path profile:")
        for name in ("prof.netsim_run_s", "prof.hdl_run_s",
                     "prof.sync_advance_s", "prof.cell_compile_s"):
            if name in histograms:
                hist = histograms[name]
                print(f"  {name:<22} n={hist['count']:<6} "
                      f"total={_format_seconds(hist['total'])}")

    _write_json(args.json, report)
    if args.trace:
        print(f"wrote trace {args.trace}")
    return 0


def _cmd_trace_run(args: argparse.Namespace) -> int:
    # Lazy import — same circularity reason as stats.
    from repro.obs.scenario import run_observed_e1

    out = Path(args.out)
    if out.parent != Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    report = run_observed_e1(cells=args.cells, load=args.load,
                             lockstep=args.lockstep, trace=out,
                             sample=args.sample, profile=args.profile)
    provenance = report.get("provenance", {})
    print(f"wrote {report['trace_records']} trace record(s) to {out}")
    print(f"  cells traced: {provenance.get('cells_sampled', 0)}"
          f"/{provenance.get('cells_seen', 0)} "
          f"(1 in {provenance.get('sample', args.sample)}), "
          f"{provenance.get('spans_recorded', 0)} spans")
    if args.chrome:
        from repro.obs.chrome import (export_chrome_trace,
                                      load_trace_jsonl,
                                      validate_chrome_trace)
        payload = export_chrome_trace(load_trace_jsonl(out),
                                      path=args.chrome,
                                      snapshot=report)
        summary = validate_chrome_trace(payload)
        print(f"wrote Chrome trace {args.chrome} "
              f"({summary['events']} events, {summary['flows']} cell "
              f"flows) — open in chrome://tracing or ui.perfetto.dev")
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro.obs.chrome import (ChromeTraceError, export_chrome_trace,
                                  load_trace_jsonl,
                                  validate_chrome_trace)

    source = Path(args.input)
    if not source.is_file():
        print(f"no such trace file: {source}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else source.with_suffix("") \
        .with_suffix(".trace.json")
    snapshot = None
    if args.stats:
        stats_path = Path(args.stats)
        if not stats_path.is_file():
            print(f"no such stats file: {stats_path}", file=sys.stderr)
            return 2
        snapshot = json.loads(stats_path.read_text())
    try:
        records = load_trace_jsonl(source)
        payload = export_chrome_trace(records, path=out,
                                      snapshot=snapshot)
        summary = validate_chrome_trace(payload)
    except ChromeTraceError as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 1
    print(f"wrote Chrome trace {out} ({summary['events']} events, "
          f"{summary['flows']} cell flows, "
          f"{len(summary['tracks'])} tracks) — open in "
          f"chrome://tracing or ui.perfetto.dev")
    return 0


def _csv(values: str) -> List[str]:
    """Split a comma-separated CLI value, dropping empties."""
    return [item.strip() for item in values.split(",") if item.strip()]


def _cmd_equiv(args: argparse.Namespace) -> int:
    # Lazy import — the harness builds the full RTL + behavioural
    # stacks.
    from repro.behav import KINDS, run_equivalence

    kinds = _csv(args.duts) if args.duts else list(KINDS)
    unknown = [kind for kind in kinds if kind not in KINDS]
    if unknown:
        print(f"unknown DUT kind(s): {', '.join(unknown)}; "
              f"known: {', '.join(KINDS)}", file=sys.stderr)
        return 2
    report = run_equivalence(kinds=kinds, cells=args.cells,
                             seed=args.seed)
    print(f"cross-level equivalence — {args.cells} cells/kind, "
          f"seed {args.seed}")
    for kind, entry in report["duts"].items():
        streams = entry["streams"]
        cells_out = sum(s["rtl_count"] for s in streams)
        verdict = "match" if entry["passed"] else "DIVERGED"
        print(f"  {kind:<12} {verdict:<9} "
              f"{cells_out} cell(s) out on {entry['ports']} port(s), "
              f"{entry['records']['rtl_count']} record(s), "
              f"{entry['decisions']['rtl_count']} decision(s)")
        if not entry["passed"]:
            for port, stream in enumerate(streams):
                for mm in stream["mismatches"]:
                    print(f"    port {port} cell {mm['index']}: "
                          f"rtl={mm['rtl']} behav={mm['behav']}")
            for label in ("records", "decisions"):
                for mm in entry[label]["mismatches"]:
                    print(f"    {label} {mm['index']}: "
                          f"rtl={mm['rtl']} behav={mm['behav']}")
            if not entry["counters"]["matched"]:
                print(f"    counters rtl={entry['counters']['rtl']}")
                print(f"    counters behav="
                      f"{entry['counters']['behav']}")
    _write_json(args.json, report)
    return 0 if report["passed"] else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Lazy import (same reason as stats: the sweep pulls in the whole
    # co-simulation stack).
    from repro.sweep import (SweepRunner, SweepSpec, SweepSpecError,
                             render_sweep_report)

    try:
        if args.spec:
            spec = SweepSpec.from_file(args.spec)
        else:
            spec = SweepSpec(
                traffic=_csv(args.traffic),
                ports=[int(v) for v in _csv(args.ports)],
                seeds=[int(v) for v in _csv(args.seeds)],
                sync=_csv(args.sync),
                level=_csv(args.levels),
                cells=args.cells, load=args.load)
        if args.trace_dir:
            spec.trace_dir = args.trace_dir
        runner = SweepRunner(spec, jobs=args.jobs,
                             timeout_s=args.timeout)
    except (SweepSpecError, ValueError) as exc:
        print(f"invalid sweep: {exc}", file=sys.stderr)
        return 2

    runs = spec.expand()
    print(f"sweeping {len(runs)} scenario(s) over "
          f"{runner.jobs} worker(s), {runner.timeout_s:g} s/run budget")
    payload = runner.run()
    print()
    print(render_sweep_report(payload))
    _write_json(args.json, payload)
    aggregate = payload["aggregate"]
    ok = (aggregate["runs_passed"] == aggregate["runs_total"])
    return 0 if ok else 1


def _print_topology_report(report: Dict[str, object]) -> None:
    totals = report["totals"]
    sync = totals["sync"]
    print(f"  mode {report['mode']}: {totals['cells_in']} cells in, "
          f"{totals['output_cells']} out, "
          f"{totals['records']} record(s), "
          f"{totals['clocks']} DUT clocks in "
          f"{report['wall_s']:.3f} s wall "
          f"({report['cycles_per_s']:,.0f} cycles/s aggregate)")
    for shard in report["shards"]:
        result = shard["result"]
        exchange = shard["exchange"]
        frames = (exchange["frames_sent"]
                  + exchange["frames_received"])
        octets = (exchange["bytes_sent"]
                  + exchange["bytes_received"])
        print(f"    {shard['id']:<10} {shard['level']:<6} "
              f"{result['cells_in']:>4} in  "
              f"{result['output_cells']:>4} out  "
              f"{len(result['records']):>3} rec  "
              f"{frames:>4} frame(s)  "
              f"{octets:>8,} B")
    print(f"  sync: {sync['messages_posted']} posts, "
          f"{sync['null_messages']} nulls "
          f"({sync['null_messages_coalesced']} coalesced), "
          f"{sync['windows_granted']} windows")
    if totals["frames"]:
        print(f"  wire: {totals['bytes']:,} octets in "
              f"{totals['frames']} frame(s) "
              f"({totals['bytes'] / totals['frames']:,.0f} B/frame)")
    telemetry = report.get("telemetry")
    if telemetry:
        spans = telemetry["spans"]
        shards_by_cell: Dict[object, set] = {}
        for span in spans:
            shards_by_cell.setdefault(span.get("cell"), set()).add(
                span.get("shard"))
        cross = sum(1 for shards_seen in shards_by_cell.values()
                    if len(shards_seen) > 1)
        print(f"  telemetry: {len(spans)} span(s) over "
              f"{len(shards_by_cell)} cell(s), "
              f"{cross} cross-shard chain(s), "
              f"{telemetry['trace_records']} trace record(s)")
    print(f"  digest {report['digest'][:16]}…")


def _cmd_shard(args: argparse.Namespace) -> int:
    # Lazy import — the topology pulls in the whole stack.
    from repro.shard import (ShardError, ShardSpec, ShardSpecError,
                             TopologySpec, run_topology)

    try:
        if args.spec:
            spec = TopologySpec.from_file(args.spec)
            if args.transport:
                spec.transport = args.transport
        else:
            levels = _csv(args.levels)
            if len(levels) == 1:
                levels = levels * args.shards
            if len(levels) != args.shards:
                raise ShardSpecError(
                    f"--levels names {len(levels)} level(s) for "
                    f"{args.shards} shard(s)")
            spec = TopologySpec(
                shards=[ShardSpec(f"shard{i}", level=levels[i],
                                  num_ports=args.ports)
                        for i in range(args.shards)],
                cells=args.cells, seed=args.seed, chain=args.chain,
                transport=args.transport or "pipe",
                window_slots=args.window_slots)
        if args.trace_dir:
            spec.trace_dir = args.trace_dir
        if args.observe:
            spec.observe = True
    except ShardSpecError as exc:
        print(f"invalid topology: {exc}", file=sys.stderr)
        return 2

    shape = ", ".join(f"{s.id}:{s.level}" for s in spec.shards)
    print(f"sharded topology — {len(spec.shards)} shard(s) [{shape}], "
          f"{spec.cells} cells/shard, seed {spec.seed}, "
          f"{'chained' if spec.chain else 'independent'}, "
          f"{spec.transport} transport")
    modes = ["local", "sharded"] if args.mode == "both" \
        else [args.mode]
    reports = {}
    try:
        for mode in modes:
            reports[mode] = run_topology(spec, mode=mode)
            _print_topology_report(reports[mode])
    except ShardError as exc:
        print(f"shard failure: {exc}", file=sys.stderr)
        return 1

    matched = True
    if args.mode == "both":
        matched = (reports["local"]["digest"]
                   == reports["sharded"]["digest"])
        if matched:
            print("  output cell streams byte-identical across modes")
        else:
            print("  DIVERGED: sharded output differs from the "
                  "single-process reference", file=sys.stderr)
            for mode in modes:
                for shard in reports[mode]["shards"]:
                    print(f"    {mode}/{shard['id']}: "
                          f"{shard['digests']}", file=sys.stderr)
    _write_json(args.json, reports[modes[-1]] if len(modes) == 1 else {
        "benchmark": "shard_topology",
        "modes": reports,
        "matched": matched,
    })
    return 0 if matched else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.status:
        # Dial a running service instead of binding one.
        return _service_stats(args.status)
    # Lazy import — the service spawns the sweep scenario workers.
    from repro.shard import JobService

    try:
        service = JobService(jobs=args.jobs, timeout_s=args.timeout,
                             host=args.host, port=args.port)
        service.start()
    except (ValueError, OSError) as exc:
        print(f"cannot start job service: {exc}", file=sys.stderr)
        return 2
    host, port = service.address
    print(f"serve: listening on {host}:{port} — {service.jobs} "
          f"persistent worker(s), {service.timeout_s:g} s/job budget",
          flush=True)
    print("serve: submit JSON-lines requests "
          "({\"op\": \"submit\", \"run\": {...}}); "
          "{\"op\": \"shutdown\"} stops the service", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
    stats = service.stats
    print(f"serve: shut down after {stats['submitted']} job(s) "
          f"({stats['completed']} done, {stats['errors']} error(s), "
          f"{stats['crashes']} crash(es), "
          f"{stats['timeouts']} timeout(s))")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CASTANET reproduction utilities")
    commands = parser.add_subparsers(dest="command")
    commands.add_parser("inventory",
                        help="show the package map").set_defaults(
        fn=_cmd_inventory)
    commands.add_parser("examples",
                        help="list example scripts").set_defaults(
        fn=_cmd_examples)
    example = commands.add_parser("example", help="run one example")
    example.add_argument("name")
    example.set_defaults(fn=_cmd_example)
    commands.add_parser(
        "results",
        help="print the latest benchmark tables").set_defaults(
        fn=_cmd_results)
    stats = commands.add_parser(
        "stats",
        help="run the observed E1 scenario and report co-simulation "
             "metrics")
    stats.add_argument("--cells", type=int, default=64,
                       help="total cell budget (default 64)")
    stats.add_argument("--load", type=float, default=0.25,
                       help="per-port line occupancy (default 0.25)")
    stats.add_argument("--lockstep", action="store_true",
                       help="use the naive per-clock synchroniser "
                            "(the E2 ablation)")
    stats.add_argument("--json", default=None,
                       help="metrics JSON output path (default: none)")
    stats.add_argument("--trace", default=None,
                       help="also write a JSON-lines decision trace "
                            "to this path")
    stats.add_argument("--sample", type=int, default=1,
                       help="trace 1 in N cell journeys (default 1 "
                            "= every cell)")
    stats.add_argument("--profile", action="store_true",
                       help="attach wall-clock profiling spans to "
                            "the kernel hot paths")
    stats.add_argument("--service", default=None, metavar="HOST:PORT",
                       help="dial a running 'serve' job service and "
                            "print its live STATS introspection "
                            "instead of running the scenario")
    stats.set_defaults(fn=_cmd_stats)
    trace = commands.add_parser(
        "trace",
        help="causal cell tracing: record JSONL traces and export "
             "them for chrome://tracing / Perfetto")
    trace_commands = trace.add_subparsers(dest="trace_command")
    trace_run = trace_commands.add_parser(
        "run",
        help="run the observed E1 scenario with causal tracing and "
             "write the JSONL decision trace")
    trace_run.add_argument("--cells", type=int, default=64,
                           help="total cell budget (default 64)")
    trace_run.add_argument("--load", type=float, default=0.25,
                           help="per-port line occupancy "
                                "(default 0.25)")
    trace_run.add_argument("--lockstep", action="store_true",
                           help="use the naive per-clock "
                                "synchroniser (the E2 ablation)")
    trace_run.add_argument("--sample", type=int, default=1,
                           help="trace 1 in N cell journeys "
                                "(default 1 = every cell)")
    trace_run.add_argument("--profile", action="store_true",
                           help="attach wall-clock profiling spans "
                                "to the kernel hot paths")
    trace_run.add_argument("--out", default="traces/e1.trace.jsonl",
                           help="JSONL trace output path "
                                "(default traces/e1.trace.jsonl)")
    trace_run.add_argument("--chrome", default=None,
                           help="also export a Chrome/Perfetto trace "
                                "JSON to this path")
    trace_run.set_defaults(fn=_cmd_trace_run)
    trace_export = trace_commands.add_parser(
        "export",
        help="convert a JSONL trace into a Chrome/Perfetto trace "
             "JSON (validated after writing)")
    trace_export.add_argument("input",
                              help="JSONL trace file (from "
                                   "'trace run' or 'stats --trace')")
    trace_export.add_argument("--out", default=None,
                              help="Chrome trace output path "
                                   "(default: input with a "
                                   ".trace.json suffix)")
    trace_export.add_argument("--stats", default=None,
                              help="'stats --json' snapshot to "
                                   "embed as trace metadata")
    trace_export.set_defaults(fn=_cmd_trace_export)
    sweep = commands.add_parser(
        "sweep",
        help="run a scenario matrix over worker processes and "
             "aggregate the results")
    sweep.add_argument("--spec", default=None,
                       help="TOML/JSON sweep spec (see "
                            "examples/sweep_small.toml); flags below "
                            "define the matrix when omitted")
    sweep.add_argument("--traffic", default="cbr",
                       help="comma list of traffic models "
                            "(cbr,poisson,onoff; default cbr)")
    sweep.add_argument("--ports", default="4",
                       help="comma list of switch port counts "
                            "(default 4)")
    sweep.add_argument("--seeds", default="0",
                       help="comma list of RNG seeds (default 0)")
    sweep.add_argument("--sync", default="conservative",
                       help="comma list of sync modes "
                            "(conservative,lockstep)")
    sweep.add_argument("--levels", default="rtl",
                       help="comma list of DUT abstraction levels "
                            "(rtl,behav; default rtl)")
    sweep.add_argument("--cells", type=int, default=32,
                       help="cell budget per run (default 32)")
    sweep.add_argument("--load", type=float, default=0.25,
                       help="per-port line occupancy (default 0.25)")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: spec value, "
                            "or 2); 1 runs serially")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-run wall-clock budget in seconds "
                            "(default: spec value, or 120)")
    sweep.add_argument("--trace-dir", default=None,
                       help="write one JSONL decision trace per run "
                            "to this directory")
    sweep.add_argument("--json", default=None,
                       help="sweep JSON output path (default: none)")
    sweep.set_defaults(fn=_cmd_sweep)
    equiv = commands.add_parser(
        "equiv",
        help="diff the behavioural DUT twins against the RTL designs "
             "on identical seeded cell streams")
    equiv.add_argument("--duts", default=None,
                       help="comma list of DUT kinds (port_module,"
                            "switch,policer,accounting; default all)")
    equiv.add_argument("--cells", type=int, default=64,
                       help="cells per DUT kind (default 64)")
    equiv.add_argument("--seed", type=int, default=0,
                       help="base RNG seed (default 0)")
    equiv.add_argument("--json", default=None,
                       help="report JSON output path (default: none)")
    equiv.set_defaults(fn=_cmd_equiv)
    shard = commands.add_parser(
        "shard",
        help="run a sharded multi-switch topology (one process per "
             "DUT shard, conservative protocol over pipes/sockets)")
    shard.add_argument("--spec", default=None,
                       help="TOML/JSON topology spec (see examples/"
                            "topology_two_switch.toml); flags below "
                            "define the topology when omitted")
    shard.add_argument("--shards", type=int, default=2,
                       help="shard count (default 2)")
    shard.add_argument("--levels", default="auto",
                       help="comma list of per-shard DUT levels "
                            "(rtl,behav,auto; one value applies to "
                            "all shards; default auto)")
    shard.add_argument("--ports", type=int, default=4,
                       help="switch ports per shard (default 4)")
    shard.add_argument("--cells", type=int, default=48,
                       help="seeded stimulus cells per shard "
                            "(default 48)")
    shard.add_argument("--seed", type=int, default=0,
                       help="stimulus RNG seed (default 0)")
    shard.add_argument("--chain", action="store_true",
                       help="forward shard k's output cells into "
                            "shard k+1 (two-switch cell flows)")
    shard.add_argument("--transport", default=None,
                       choices=("pipe", "socket", "shm"),
                       help="shard coupling transport (default pipe; "
                            "shm is the same-host shared-memory ring; "
                            "overrides the spec file's choice)")
    shard.add_argument("--window-slots", type=int, default=64,
                       help="cell slots per conservative driving "
                            "window (default 64)")
    shard.add_argument("--mode", default="sharded",
                       choices=("sharded", "local", "both"),
                       help="sharded processes, in-process reference, "
                            "or both + digest diff (default sharded)")
    shard.add_argument("--trace-dir", default=None,
                       help="write one JSONL decision trace per "
                            "shard to this directory")
    shard.add_argument("--observe", action="store_true",
                       help="enable metrics/provenance instruments "
                            "in every shard and merge the per-shard "
                            "telemetry into the report (trace ids "
                            "stamped into the op stream)")
    shard.add_argument("--json", default=None,
                       help="report JSON output path (default: none)")
    shard.set_defaults(fn=_cmd_shard)
    serve = commands.add_parser(
        "serve",
        help="start the persistent scenario job service (JSON-lines "
             "TCP endpoint over a long-lived worker pool)")
    serve.add_argument("--jobs", type=int, default=2,
                       help="persistent worker processes (default 2)")
    serve.add_argument("--timeout", type=float, default=120.0,
                       help="per-job wall-clock budget in seconds "
                            "(default 120)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default 0 = ephemeral, "
                            "printed on startup)")
    serve.add_argument("--status", default=None, metavar="HOST:PORT",
                       help="dial a running service and print its "
                            "live STATS introspection instead of "
                            "binding")
    serve.set_defaults(fn=_cmd_serve)
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_help()
        return 2
    return args.fn(args)
