"""Aggregation, histogram merging and the determinism projection.

The runner's per-run results are condensed into one aggregate block
of the sweep payload: run counts by status, pass/fail totals,
cells processed, summed kernel work, throughput, sync-exchange totals
and the merged per-cell ingress-latency histogram.

:func:`strip_volatile` defines the determinism contract: two sweeps of
the same matrix and seeds agree exactly on everything it keeps —
wall-clock figures, process placement and attempt counts are the only
permitted differences.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["VOLATILE_KEYS", "aggregate_results",
           "merge_latency_histograms", "strip_volatile"]

#: keys whose values legitimately differ between identical sweeps:
#: wall-clock timing, worker placement and retry bookkeeping
VOLATILE_KEYS = frozenset({
    "wall_s", "cycles_per_s", "sweep_wall_s", "mode", "attempts",
    "execution", "detail",
})


def merge_latency_histograms(
        histograms: List[Optional[Dict[str, Any]]]) -> Dict[str, Any]:
    """Merge per-run histogram snapshots (the ``as_dict`` form of
    :class:`repro.obs.Histogram`) into one distribution.

    All runs share :data:`repro.obs.DEFAULT_SECONDS_BOUNDS`, so bucket
    counts merge by upper bound; p50/p99 are re-derived from the
    merged buckets with the same upper-bound convention the source
    histograms use.
    """
    merged_buckets: Dict[Any, int] = {}
    count = 0
    total = 0.0
    lo: Optional[float] = None
    hi: Optional[float] = None
    for hist in histograms:
        if not hist:
            continue
        count += hist["count"]
        total += hist["total"]
        for bucket in hist["buckets"]:
            merged_buckets[bucket["le"]] = \
                merged_buckets.get(bucket["le"], 0) + bucket["count"]
        if hist["min"] is not None and (lo is None or hist["min"] < lo):
            lo = hist["min"]
        if hist["max"] is not None and (hi is None or hist["max"] > hi):
            hi = hist["max"]

    def _key(le: Any) -> float:
        return float("inf") if le == "inf" else float(le)

    buckets = [{"le": le, "count": merged_buckets[le]}
               for le in sorted(merged_buckets, key=_key)]

    def _quantile(q: float) -> Optional[float]:
        if count == 0:
            return None
        rank = q * count
        seen = 0
        for bucket in buckets:
            seen += bucket["count"]
            if seen >= rank:
                return hi if bucket["le"] == "inf" else bucket["le"]
        return hi

    return {
        "count": count,
        "total": total,
        "mean": total / count if count else 0.0,
        "min": lo,
        "max": hi,
        "p50": _quantile(0.5),
        "p99": _quantile(0.99),
        "buckets": buckets,
    }


def aggregate_results(results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Condense per-run results into the sweep-level aggregate."""
    by_status: Dict[str, int] = {}
    for result in results:
        status = result.get("status", "error")
        by_status[status] = by_status.get(status, 0) + 1
    completed = [r for r in results if r.get("status") == "ok"]
    cells = sum(r["cells_in"] for r in completed)
    clocks = sum(r["hdl_clocks"] for r in completed)
    wall = sum(r["wall_s"] for r in completed)
    return {
        "runs_total": len(results),
        "runs_by_status": by_status,
        "runs_passed": sum(1 for r in completed if r.get("passed")),
        "runs_failed": sum(1 for r in results if not r.get("passed")),
        "cells_processed": cells,
        "hdl_clocks": clocks,
        "hdl_events": sum(r["hdl_events"] for r in completed),
        "netsim_events": sum(r["netsim_events"] for r in completed),
        "sync_exchanges": sum(r["sync_exchanges"] for r in completed),
        "wall_s": wall,
        "cycles_per_s": clocks / wall if wall > 0 else 0.0,
        "latency": merge_latency_histograms(
            [r.get("latency") for r in completed]),
    }


def strip_volatile(payload: Any) -> Any:
    """A deep copy of *payload* with every volatile key removed.

    Two sweeps of the same spec must satisfy::

        strip_volatile(a) == strip_volatile(b)

    whatever their worker placement, retries or host speed.
    """
    if isinstance(payload, dict):
        return {key: strip_volatile(value)
                for key, value in payload.items()
                if key not in VOLATILE_KEYS}
    if isinstance(payload, list):
        return [strip_volatile(item) for item in payload]
    return payload
