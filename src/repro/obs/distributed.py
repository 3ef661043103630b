"""Per-process telemetry payloads for distributed co-simulation.

Shard workers over pipe/socket/shm make the reproduction
multi-process, while the ``repro.obs`` layer is strictly per-process —
without a shipped payload a sharded run is a telemetry black hole.
This module defines the **shard telemetry payload**: one plain-data
dict per worker process carrying everything observability
knows about that process, shippable over the shard wire's tag codec
(:mod:`repro.shard.codec`) with no pickles:

* the :class:`~repro.obs.metrics.MetricsRegistry` snapshot
  (counters + histograms),
* the provenance span stream (one record per recorded hop, shard-
  attributed, both time domains where known),
* **coverage counters** — FSM states visited, sync-window occupancy,
  per-hop latency tail buckets, residual backlogs — the feedback
  signal the ROADMAP's coverage-driven scenario generator will
  consume.

Everything here is *plain data in, plain data out*: no import of
``repro.core`` or ``repro.shard`` (the shard layer imports us, not
the other way round), so the payloads merge (:mod:`repro.obs.merge`)
and export (:mod:`repro.obs.chrome`) without any live simulator
objects.  The SCE-MI reference (PAPERS.md) routes channel telemetry
through the same transaction pipes as the data; this is that shape —
telemetry rides the existing binary wire, aggregation is a subsystem.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

__all__ = ["TELEMETRY_SCHEMA", "spans_from_tracker", "fsm_coverage",
           "hop_tail_coverage", "sync_window_coverage",
           "residual_backlog", "coverage_snapshot", "build_telemetry"]

#: payload schema version (bumped on incompatible shape changes)
TELEMETRY_SCHEMA = 1

#: registry prefix of the per-hop provenance latency histograms
_HOP_PREFIX = "prov.hop_s."


def spans_from_tracker(tracker, shard: Optional[str] = None
                       ) -> List[Dict[str, Any]]:
    """Flatten a :class:`~repro.obs.provenance.ProvenanceTracker`'s
    recorded journeys into one span-record list.

    Each record is ``{"ev": "span", "cell": tid, "hop": name}`` plus
    ``t``/``hdl_s`` where stamped and the ``shard`` attribution — the
    same shape the trace stream uses, so merged span lists feed the
    Chrome exporter directly.
    """
    spans: List[Dict[str, Any]] = []
    for tid, journey in tracker.journeys().items():
        for hop, (t, hdl_s) in journey.items():
            record: Dict[str, Any] = {"ev": "span", "cell": tid,
                                      "hop": hop}
            if t is not None:
                record["t"] = t
            if hdl_s is not None:
                record["hdl_s"] = hdl_s
            if shard is not None:
                record["shard"] = shard
            spans.append(record)
    return spans


def fsm_coverage(network) -> Dict[str, Dict[str, Any]]:
    """FSM state coverage of every process model in *network*.

    Walks the network's nodes and modules duck-typed (any module
    exposing a ``process`` with ``states_visited`` counts) and
    returns ``{process_name: {"visited": [...], "states": N,
    "fraction": visited/N}}``.
    """
    coverage: Dict[str, Dict[str, Any]] = {}
    for node in getattr(network, "nodes", {}).values():
        for module in getattr(node, "modules", {}).values():
            process = getattr(module, "process", None)
            visited = getattr(process, "states_visited", None)
            if visited is None:
                continue
            names = (process.state_names()
                     if hasattr(process, "state_names") else [])
            total = len(names)
            coverage[process.name] = {
                "visited": sorted(visited),
                "states": total,
                "fraction": (len(visited) / total if total else 0.0),
            }
    return coverage


def hop_tail_coverage(instruments: Optional[Dict[str, Any]]
                      ) -> Dict[str, Dict[str, Any]]:
    """Per-hop latency tail buckets from a registry snapshot.

    Filters the ``prov.hop_s.<from>_to_<to>`` histograms out of an
    ``instruments`` snapshot and keeps the tail view a scenario
    generator steers by: sample count, p50/p99/max, and every bucket
    at or above the median (``tail``).
    """
    coverage: Dict[str, Dict[str, Any]] = {}
    if not instruments:
        return coverage
    for name, hist in instruments.get("histograms", {}).items():
        if not name.startswith(_HOP_PREFIX):
            continue
        p50 = hist.get("p50")
        tail = [bucket for bucket in hist.get("buckets", [])
                if p50 is None or bucket["le"] == "inf"
                or bucket["le"] >= p50]
        coverage[name[len(_HOP_PREFIX):]] = {
            "count": hist.get("count", 0),
            "p50": p50,
            "p99": hist.get("p99"),
            "max": hist.get("max"),
            "tail": tail,
        }
    return coverage


def sync_window_coverage(totals: Optional[Dict[str, int]]
                         ) -> Dict[str, Any]:
    """Sync-window occupancy from aggregated synchroniser totals
    (``messages_posted``/``windows_granted``/null counts): how full
    the conservative protocol's windows actually ran."""
    totals = dict(totals or {})
    granted = int(totals.get("windows_granted", 0))
    posted = int(totals.get("messages_posted", 0))
    totals["messages_per_window"] = (posted / granted if granted
                                     else 0.0)
    return totals


def residual_backlog(entity_snapshots: Iterable[Dict[str, Any]]
                     ) -> Dict[str, Any]:
    """Undrained work left in the per-entity send paths (cells still
    queued behind the waveform sender when the run settled)."""
    per_entity: List[int] = []
    for snapshot in entity_snapshots:
        per_entity.append(int(snapshot.get("sender_backlog", 0)))
    return {"total": sum(per_entity), "per_entity": per_entity}


def coverage_snapshot(network=None,
                      instruments: Optional[Dict[str, Any]] = None,
                      sync: Optional[Dict[str, int]] = None,
                      entities: Iterable[Dict[str, Any]] = ()
                      ) -> Dict[str, Any]:
    """The full coverage-counter block of one telemetry payload."""
    return {
        "fsm_states": fsm_coverage(network) if network is not None
        else {},
        "sync_windows": sync_window_coverage(sync),
        "hop_latency_tail": hop_tail_coverage(instruments),
        "residual_backlog": residual_backlog(entities),
    }


def build_telemetry(shard: str, env, level: Optional[str] = None,
                    sync: Optional[Dict[str, int]] = None,
                    entities: Optional[List[Dict[str, Any]]] = None
                    ) -> Dict[str, Any]:
    """One process's complete telemetry payload.

    *env* is duck-typed (anything with ``metrics_registry`` /
    ``provenance`` / ``trace`` / ``network`` attributes — in practice
    a :class:`~repro.core.CoVerificationEnvironment`); the result is
    plain data, safe for the shard wire's tag codec and for
    :func:`repro.obs.merge.merge_telemetry`.
    """
    registry = getattr(env, "metrics_registry", None)
    instruments = (registry.snapshot()
                   if registry is not None and registry.enabled
                   else {"counters": {}, "histograms": {}})
    tracker = getattr(env, "provenance", None)
    trace = getattr(env, "trace", None)
    entities = list(entities or [])
    payload: Dict[str, Any] = {
        "schema": TELEMETRY_SCHEMA,
        "shard": shard,
        "level": level,
        "instruments": instruments,
        "provenance": (tracker.stats_snapshot()
                       if tracker is not None else None),
        "spans": (spans_from_tracker(tracker, shard=shard)
                  if tracker is not None else []),
        "trace_records": trace.emitted if trace is not None else 0,
        "coverage": coverage_snapshot(
            network=getattr(env, "network", None),
            instruments=instruments, sync=sync, entities=entities),
    }
    return payload
