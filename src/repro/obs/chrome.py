"""Chrome ``trace_event`` / Perfetto export of co-simulation traces.

Converts a :class:`~repro.obs.trace.TraceWriter` JSONL stream (plus an
optional kernel-statistics snapshot) into a JSON file loadable in
``chrome://tracing`` or https://ui.perfetto.dev — the visual form of
the paper's temporal claims.  One process (pid 1) carries four tracks:

=====  ===============  =================================================
tid    track            contents
=====  ===============  =================================================
1      netsim time      ``source``/``post``/``sink`` hop slices, data
                        ``post`` records, ``drain`` markers
2      HDL time         ``release``/``ingress``/``dut_out`` hop slices,
                        ``release``/``cell_out``/``tick_pulse``/
                        ``finish`` records
3      sync windows     one slice per granted processing window, from
                        the HDL time at grant to the ``t_cur`` horizon —
                        the lag invariant made visible
4      null messages    instant markers (live / stale / coalesced)
=====  ===============  =================================================

Cell journeys (``span`` records, see :mod:`repro.obs.provenance`)
additionally emit Chrome *flow events* — one arrow chain per sampled
cell, stepping from the netsim track across to the HDL track and back,
which is exactly the source→sink causality the tentpole asks to make
visible.  Timestamps are microseconds (the trace_event convention);
each track is clamped monotone so tick rounding can never produce a
backwards step that Perfetto would reject.

**Distributed traces**: records carrying a ``shard`` label (worker
trace files, merged span streams — see :mod:`repro.obs.merge`) are
grouped into one Perfetto *process* per shard — pid 2, 3, … in sorted
label order, each with its own four named tracks; unlabelled records
keep the classic single-process pid 1.  Flow chains are keyed by the
cell's trace id, which survives the shard boundary (PR 10), so a cell
hopping shard0 → shard1 draws one arrow chain *across* process groups
— the cross-process causality view (the tests read it back with
:func:`repro.reference.flow_processes`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

__all__ = ["export_chrome_trace", "load_trace_jsonl",
           "validate_chrome_trace", "ChromeTraceError",
           "NETSIM_TID", "HDL_TID", "SYNC_TID", "NULL_TID", "PID"]

#: process id of unlabelled (single-process) records; shard-labelled
#: records get pid ``PID + 1 + index`` in sorted shard-label order
PID = 1
#: track (thread) ids
NETSIM_TID = 1
HDL_TID = 2
SYNC_TID = 3
NULL_TID = 4

_TRACK_NAMES = {
    NETSIM_TID: "netsim time",
    HDL_TID: "HDL time",
    SYNC_TID: "sync windows",
    NULL_TID: "null messages",
}

#: provenance hop -> (track, preferred time-domain field)
_HOP_TRACKS = {
    "source": (NETSIM_TID, "t"),
    "post": (NETSIM_TID, "t"),
    "release": (HDL_TID, "hdl_s"),
    "ingress": (HDL_TID, "hdl_s"),
    "dut_out": (HDL_TID, "hdl_s"),
    "sink": (NETSIM_TID, "t"),
    # shard-boundary hops (PR 10): the cell crossing its process's
    # edge, netsim-time stamped by the coordinator's op stream
    "shard_in": (NETSIM_TID, "t"),
    "shard_out": (NETSIM_TID, "t"),
}

#: rendered duration of a hop slice (µs) — wide enough to click,
#: narrow against the ~2.7 µs cell time
_HOP_DUR_US = 0.05


class ChromeTraceError(ValueError):
    """Raised by :func:`validate_chrome_trace` on a malformed trace."""


def load_trace_jsonl(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Read a TraceWriter JSONL file back into a list of records."""
    records = []
    with Path(path).open() as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ChromeTraceError(
                    f"{path}:{line_no}: not valid JSON: {exc}") from None
    return records


class _Emitter:
    """Accumulates trace events with per-track monotone clamping
    (tracks are per *process*: the frontier is keyed on (pid, tid))."""

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []
        self._last_ts: Dict[tuple, float] = {}

    def ts(self, pid: int, tid: int,
           seconds: Optional[float]) -> float:
        """Clamp *seconds* (→ µs) to the track's monotone frontier."""
        us = 0.0 if seconds is None else seconds * 1e6
        last = self._last_ts.get((pid, tid), 0.0)
        if us < last:
            us = last
        self._last_ts[(pid, tid)] = us
        return us

    def add(self, ph: str, name: str, pid: int, tid: int, ts: float,
            **extra) -> None:
        """Append one event (timestamps already clamped via :meth:`ts`)."""
        event: Dict[str, object] = {"ph": ph, "name": name, "pid": pid,
                                    "tid": tid, "ts": ts}
        event.update(extra)
        self.events.append(event)

    def meta(self, process_names: Dict[int, str]) -> None:
        """Prepend process/thread-name metadata events — one process
        group per pid, four named tracks each."""
        header: List[Dict[str, object]] = []
        for pid in sorted(process_names):
            header.append({
                "ph": "M", "name": "process_name", "pid": pid,
                "tid": 0, "args": {"name": process_names[pid]},
            })
            for tid, label in _TRACK_NAMES.items():
                header.append({"ph": "M", "name": "thread_name",
                               "pid": pid, "tid": tid,
                               "args": {"name": label}})
        self.events = header + self.events


def export_chrome_trace(records: Sequence[Dict[str, object]],
                        path: Optional[Union[str, Path]] = None,
                        snapshot: Optional[Dict[str, object]] = None,
                        time_unit: float = 1e-9) -> Dict[str, object]:
    """Convert trace *records* into a Chrome trace_event payload.

    Args:
        records: TraceWriter records (dicts with an ``ev`` kind), e.g.
            from :func:`load_trace_jsonl` or ``TraceWriter.records``.
        path: optional output file; written as compact JSON.
        snapshot: optional ``env.metrics()`` report folded into the
            payload's ``otherData`` (workload + kernel counters).
        time_unit: seconds per HDL tick, used for records that carry
            raw ticks (``tick_pulse``).

    Returns:
        The payload dict (``traceEvents`` + metadata), also written to
        *path* when given.
    """
    emitter = _Emitter()
    pids = _assign_pids(records)
    flow_chains: Dict[int, List[Dict[str, object]]] = {}
    for record in records:
        kind = record.get("ev")
        shard = record.get("shard")
        pid = pids[str(shard)] if shard is not None else PID
        if kind == "span":
            _emit_span(emitter, record, flow_chains, pid)
        elif kind == "window":
            _emit_window(emitter, record, pid)
        elif kind == "null":
            stale = bool(record.get("stale"))
            coalesced = bool(record.get("coalesced"))
            name = ("null (coalesced)" if coalesced
                    else "null (stale)" if stale else "null")
            ts = emitter.ts(pid, NULL_TID, _as_float(record.get("t")))
            emitter.add("i", name, pid, NULL_TID, ts, s="t",
                        args={"t": record.get("t")})
        elif kind == "post":
            ts = emitter.ts(pid, NETSIM_TID,
                            _as_float(record.get("t")))
            emitter.add("i", f"post {record.get('type', '?')}",
                        pid, NETSIM_TID, ts, s="t",
                        args=_args(record, "t", "hdl_s", "cell"))
        elif kind == "release":
            ts = emitter.ts(pid, HDL_TID,
                            _as_float(record.get("hdl_s")))
            emitter.add("i", f"release {record.get('type', '?')}",
                        pid, HDL_TID, ts, s="t",
                        args=_args(record, "t", "hdl_s", "wait_s",
                                   "cell"))
        elif kind == "cell_out":
            ts = emitter.ts(pid, HDL_TID,
                            _as_float(record.get("hdl_s")))
            emitter.add("i", "cell_out", pid, HDL_TID, ts, s="t",
                        args=_args(record, "hdl_s", "latency_s"))
        elif kind == "tick_pulse":
            tick = record.get("hdl_tick")
            seconds = (float(tick) * time_unit
                       if isinstance(tick, (int, float)) else None)
            ts = emitter.ts(pid, HDL_TID, seconds)
            emitter.add("i", "tick_pulse", pid, HDL_TID, ts, s="t",
                        args=_args(record, "hdl_tick", "deferred_ticks"))
        elif kind == "drain":
            ts = emitter.ts(pid, NETSIM_TID,
                            _as_float(record.get("t")))
            emitter.add("i", "drain", pid, NETSIM_TID, ts, s="p",
                        args=_args(record, "t"))
        elif kind == "finish":
            ts = emitter.ts(pid, HDL_TID,
                            _as_float(record.get("hdl_s")))
            emitter.add("i", "finish", pid, HDL_TID, ts, s="p",
                        args=_args(record, "hdl_s", "residual"))
        # unknown kinds are skipped: forward compatibility with new
        # TraceWriter event types
    for chain in flow_chains.values():
        if len(chain) < 2:
            # a single-hop journey has no arrow to draw — and a lone
            # "s" (or "f") would fail flow validation
            for event in chain:
                emitter.events.remove(event)
            continue
        # retro-promote the final flow step of each journey to its
        # terminator so every chain ends with "f"
        chain[-1]["ph"] = "f"
        chain[-1]["bp"] = "e"
    process_names = {PID: "castanet co-simulation"}
    for label, pid in pids.items():
        process_names[pid] = f"shard {label}"
    # only name processes that actually own events — a fully
    # shard-labelled trace has nothing on the default pid
    used = {event["pid"] for event in emitter.events}
    emitter.meta({pid: name for pid, name in process_names.items()
                  if pid in used})
    payload: Dict[str, object] = {
        "traceEvents": emitter.events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs.chrome",
                      "record_count": len(records)},
    }
    if snapshot is not None:
        other = payload["otherData"]
        for key in ("workload", "hdl_kernel", "netsim_kernel",
                    "provenance"):
            if key in snapshot:
                other[key] = snapshot[key]
    if path is not None:
        Path(path).write_text(json.dumps(payload) + "\n")
    return payload


def _assign_pids(records: Sequence[Dict[str, object]]
                 ) -> Dict[str, int]:
    """Deterministic shard-label → pid map: sorted labels get
    ``PID + 1``, ``PID + 2``, … (pid :data:`PID` stays reserved for
    unlabelled single-process records)."""
    labels = sorted({str(record["shard"]) for record in records
                     if record.get("shard") is not None})
    return {label: PID + 1 + index
            for index, label in enumerate(labels)}


def _as_float(value: object) -> Optional[float]:
    return float(value) if isinstance(value, (int, float)) else None


def _args(record: Dict[str, object], *keys: str) -> Dict[str, object]:
    return {key: record[key] for key in keys if key in record}


def _emit_span(emitter: _Emitter, record: Dict[str, object],
               flow_chains: Dict[int, List[Dict[str, object]]],
               pid: int = PID) -> None:
    hop = str(record.get("hop"))
    cell = record.get("cell")
    track, domain = _HOP_TRACKS.get(hop, (NETSIM_TID, "t"))
    seconds = _as_float(record.get(domain))
    if seconds is None:  # fall back to the other domain's stamp
        other = "hdl_s" if domain == "t" else "t"
        seconds = _as_float(record.get(other))
    ts = emitter.ts(pid, track, seconds)
    args = _args(record, "t", "hdl_s", "cell", "src", "dst", "shard")
    emitter.add("X", hop, pid, track, ts, dur=_HOP_DUR_US, args=args)
    if not isinstance(cell, int):
        return
    # flow chain: "s" opens the journey at the source, "t" steps it
    # across tracks — and across *processes*, the flow id (the cell's
    # trace id) being pid-agnostic — the final step is promoted to
    # "f" at the end
    chain = flow_chains.setdefault(cell, [])
    event: Dict[str, object] = {"ph": "s" if not chain else "t",
                                "name": f"cell {cell}",
                                "cat": "cell", "id": cell, "pid": pid,
                                "tid": track, "ts": ts}
    emitter.events.append(event)
    chain.append(event)


def _emit_window(emitter: _Emitter, record: Dict[str, object],
                 pid: int = PID) -> None:
    """One sync-window slice: HDL time at grant → the t_cur horizon.

    Consecutive windows are forced non-overlapping (the B of window
    *k+1* is clamped past the E of window *k*): ``t_cur`` is strictly
    increasing across grants, so the horizon edge is faithful and only
    the left edge can be nudged right by clamping.
    """
    begin = emitter.ts(pid, SYNC_TID, _as_float(record.get("hdl_s")))
    end_s = _as_float(record.get("t_cur"))
    end = emitter.ts(pid, SYNC_TID, end_s)
    emitter.add("B", "window", pid, SYNC_TID, begin,
                args=_args(record, "t_cur", "hdl_s"))
    emitter.add("E", "window", pid, SYNC_TID, end)


def validate_chrome_trace(payload: Dict[str, object]
                          ) -> Dict[str, object]:
    """Schema-check a trace_event payload; returns a summary.

    Checks: every event carries ``ph``/``pid``/``tid`` (plus ``ts``
    for non-metadata), per-track timestamps are monotone
    non-decreasing, ``B``/``E`` spans pair up per track, and every
    flow chain starts with ``s`` and ends with ``f``.

    Raises:
        ChromeTraceError: on the first violation found.
    """
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ChromeTraceError("payload has no traceEvents")
    frontier: Dict[tuple, float] = {}
    stacks: Dict[tuple, List[str]] = {}
    flows: Dict[object, List[str]] = {}
    counts: Dict[str, int] = {}
    for index, event in enumerate(events):
        ph = event.get("ph")
        if ph is None or "pid" not in event or "tid" not in event:
            raise ChromeTraceError(
                f"event {index} missing ph/pid/tid: {event!r}")
        counts[ph] = counts.get(ph, 0) + 1
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            raise ChromeTraceError(
                f"event {index} has no numeric ts: {event!r}")
        key = (event["pid"], event["tid"])
        last = frontier.get(key)
        if last is not None and ts < last:
            raise ChromeTraceError(
                f"event {index}: track {key} ts {ts} < {last} "
                "(non-monotone)")
        frontier[key] = float(ts)
        if ph == "B":
            stacks.setdefault(key, []).append(str(event.get("name")))
        elif ph == "E":
            stack = stacks.get(key)
            if not stack:
                raise ChromeTraceError(
                    f"event {index}: E without open B on track {key}")
            opened = stack.pop()
            name = event.get("name")
            if name is not None and str(name) != opened:
                raise ChromeTraceError(
                    f"event {index}: E {name!r} closes B {opened!r}")
        elif ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ChromeTraceError(
                    f"event {index}: X without non-negative dur")
        elif ph in ("s", "t", "f"):
            flows.setdefault(event.get("id"), []).append(ph)
    for key, stack in stacks.items():
        if stack:
            raise ChromeTraceError(
                f"track {key}: unclosed B span(s) {stack!r}")
    for flow_id, phases in flows.items():
        if phases[0] != "s":
            raise ChromeTraceError(
                f"flow {flow_id!r} starts with {phases[0]!r}, not 's'")
        if phases[-1] != "f":
            raise ChromeTraceError(
                f"flow {flow_id!r} ends with {phases[-1]!r}, not 'f'")
        if any(ph != "t" for ph in phases[1:-1]):
            raise ChromeTraceError(
                f"flow {flow_id!r} has a non-'t' middle step")
    return {"events": len(events), "phases": counts,
            "tracks": sorted(frontier), "flows": len(flows)}
